// Firing and clean cases for the oracle-path rules, against hand-built
// scan configurations and real orap.Protect output.
package audit_test

import (
	"testing"

	"orap/internal/audit"
	"orap/internal/check"
	"orap/internal/circuits"
	"orap/internal/gf2"
	"orap/internal/lfsr"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

// keyedCore builds a 4-key core with 1 package pin, 4 flip-flops and 1
// pin output — enough state for modified-scheme and layout checks.
func keyedCore(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("keyedcore")
	a := addIn(t, c, "a")
	ffs := make([]int, 4)
	for i := range ffs {
		ffs[i] = addIn(t, c, "f"+string(rune('0'+i)))
	}
	keys := make([]int, 4)
	for i := range keys {
		keys[i] = addKey(t, c, "keyinput"+string(rune('0'+i)))
	}
	x := c.MustAddGate(netlist.Xor, "x", a, keys[0])
	for i := 1; i < 4; i++ {
		x = c.MustAddGate(netlist.Xor, "x"+string(rune('0'+i)), x, keys[i])
	}
	o := c.MustAddGate(netlist.Or, "o", x, ffs[0])
	markOut(t, c, o)
	for i := range ffs {
		d := c.MustAddGate(netlist.And, "d"+string(rune('0'+i)), ffs[i], x)
		markOut(t, c, d)
	}
	return c
}

// orapBasicConfig builds a real protected configuration through the
// paper's synthesis path.
func orapBasicConfig(t *testing.T, prot scan.Protection) (scan.Config, *lock.Locked) {
	t.Helper()
	l, err := lock.Weighted(circuits.RippleAdder(4), lock.WeightedOptions{
		KeyBits: 12, ControlWidth: 3, KeyGates: 12, Rand: rng.New(71),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := orap.Protect(l.Circuit, l.Key, 5, 1, prot, orap.Options{Rand: rng.New(72)})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, l
}

func TestOracleUnprotectedFires(t *testing.T) {
	core := keyedCore(t)
	cfg := scan.Config{
		Core: core, RealPIs: 1, RealPOs: 1,
		Protection: scan.None,
		Key:        []bool{true, false, false, false},
	}
	rep, err := audit.Oracle(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.ByRule(audit.RuleOracleUnprotected)
	if len(fs) != 1 || fs[0].Sev != check.Error {
		t.Fatalf("want one error, got:\n%s", rep)
	}
	if rep.NominalEntropy != 0 {
		t.Errorf("unprotected config must not report entropy, got %d", rep.NominalEntropy)
	}
}

func TestOracleProtectedCleanWithFullEntropy(t *testing.T) {
	cfg, l := orapBasicConfig(t, scan.OraPBasic)
	rep, err := audit.Oracle(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Fatalf("errors on a synthesized OraP configuration:\n%s", rep)
	}
	if rep.NominalEntropy != len(l.Key) || rep.EffectiveEntropy != rep.NominalEntropy {
		t.Fatalf("entropy %d/%d, want full %d", rep.EffectiveEntropy, rep.NominalEntropy, len(l.Key))
	}
}

// A schedule injecting through a single point for too few cycles leaves
// the transfer matrix rank-deficient: only a fraction of the register
// states are reachable from memory.
func TestOracleKeyEntropyFires(t *testing.T) {
	core := keyedCore(t)
	seeds := []gf2.Vec{gf2.NewVec(1), gf2.NewVec(1)}
	seeds[0].SetBit(0, true)
	cfg := scan.Config{
		Core: core, RealPIs: 1, RealPOs: 1,
		Protection: scan.OraPBasic,
		LFSR:       lfsr.Config{N: 4, Taps: lfsr.StandardTaps(4, 8), Inject: []int{0}},
		Schedule:   lfsr.UniformSchedule(2, 0),
		Seeds:      seeds,
		MemInject:  []int{0},
	}
	rep, err := audit.Oracle(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.ByRule(audit.RuleKeyEntropy)
	if len(fs) != 1 || fs[0].Sev != check.Error {
		t.Fatalf("want one key-entropy error, got:\n%s", rep)
	}
	if rep.EffectiveEntropy >= rep.NominalEntropy || rep.NominalEntropy != 4 {
		t.Fatalf("entropy %d/%d, want deficient", rep.EffectiveEntropy, rep.NominalEntropy)
	}
}

// Zeroing out a synthesized key sequence makes the basic scheme unlock
// to the cleared register: protection void, audit must say so.
func TestOracleZeroKeyFires(t *testing.T) {
	cfg, _ := orapBasicConfig(t, scan.OraPBasic)
	for i := range cfg.Seeds {
		cfg.Seeds[i] = gf2.NewVec(cfg.Seeds[i].Len())
	}
	rep, err := audit.Oracle(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs := rep.ByRule(audit.RuleZeroKey); len(fs) != 1 || fs[0].Sev != check.Error {
		t.Fatalf("want one zero-key error, got:\n%s", rep)
	}
}

func modifiedConfig(t *testing.T, respTaps []int) scan.Config {
	t.Helper()
	core := keyedCore(t)
	seeds := make([]gf2.Vec, 4)
	for i := range seeds {
		seeds[i] = gf2.NewVec(2)
	}
	return scan.Config{
		Core: core, RealPIs: 1, RealPOs: 1,
		Protection: scan.OraPModified,
		LFSR:       lfsr.Config{N: 4, Taps: lfsr.StandardTaps(4, 8), Inject: lfsr.AllInject(4)},
		Schedule:   lfsr.UniformSchedule(4, 1),
		Seeds:      seeds,
		MemInject:  []int{0, 2},
		RespInject: []int{1, 3},
		RespTaps:   respTaps,
	}
}

func TestOracleRespTapsRule(t *testing.T) {
	rep, err := audit.Oracle(modifiedConfig(t, []int{1, 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.ByRule(audit.RuleRespTaps)
	if len(fs) != 1 || fs[0].Sev != check.Warning {
		t.Fatalf("want one resp-taps warning, got:\n%s", rep)
	}

	rep, err = audit.Oracle(modifiedConfig(t, []int{0, 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs := rep.ByRule(audit.RuleRespTaps); len(fs) != 0 {
		t.Fatalf("resp-taps fired on distinct taps:\n%s", rep)
	}
}

func TestOracleScanLayoutRule(t *testing.T) {
	cfg := modifiedConfig(t, []int{0, 1})

	tail := scan.TailLayout(4, 4, 1)
	rep, err := audit.Oracle(cfg, &tail)
	if err != nil {
		t.Fatal(err)
	}
	if fs := rep.ByRule(audit.RuleScanLayout); len(fs) != 1 || fs[0].Sev != check.Warning {
		t.Fatalf("want one scan-layout warning on the tail layout, got:\n%s", rep)
	}

	inter := scan.InterleavedLayout(4, 4, 1)
	rep, err = audit.Oracle(cfg, &inter)
	if err != nil {
		t.Fatal(err)
	}
	if fs := rep.ByRule(audit.RuleScanLayout); len(fs) != 0 {
		t.Fatalf("scan-layout fired on the interleaved layout:\n%s", rep)
	}
}
