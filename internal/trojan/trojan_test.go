package trojan

import (
	"fmt"
	"testing"

	"orap/internal/circuits"
	"orap/internal/lfsr"
	"orap/internal/lock"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

// buildChipConfig locks an adder and protects it with the given scheme.
func buildChipConfig(t *testing.T, prot scan.Protection, seed uint64) (scan.Config, *lock.Locked) {
	t.Helper()
	orig := circuits.RippleAdder(4)
	l, err := lock.RandomXOR(orig, 8, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := orap.Protect(l.Circuit, l.Key, 5, 1, prot, orap.Options{Rand: rng.New(seed + 50)})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, l
}

func somePattern(n int) []bool {
	x := make([]bool, n)
	for i := range x {
		x[i] = i%3 != 0
	}
	return x
}

func TestScenarioASuppressResetYieldsCorrectOracle(t *testing.T) {
	cfg, l := buildChipConfig(t, scan.OraPBasic, 1)
	x := somePattern(cfg.Core.NumInputs())
	out, err := SimulateSuppressReset(cfg, l.Key, x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CorrectResponse {
		t.Fatal("suppress-reset Trojan failed to expose the oracle (it should succeed functionally)")
	}
	if out.RecoveredKey == nil {
		t.Fatal("suppress-reset Trojan should also leak the key via scan")
	}
	for i := range l.Key {
		if out.RecoveredKey[i] != l.Key[i] {
			t.Fatal("leaked key differs from the true key")
		}
	}
}

func TestSimulateSuppressResetChecksPatternWidth(t *testing.T) {
	// A pattern of the wrong width is an error, never a panic: shorter
	// than the pins, between the pins and the core inputs, or longer than
	// the core inputs. TestScenarioASuppressResetYieldsCorrectOracle
	// covers the correct width.
	cfg, l := buildChipConfig(t, scan.OraPBasic, 1)
	pins, inputs := cfg.RealPIs, cfg.Core.NumInputs()
	if !(2 < pins && pins+1 < inputs) {
		t.Fatalf("fixture has %d pins and %d inputs; the widths below need 2 < pins < inputs-1", pins, inputs)
	}
	for _, width := range []int{2, pins + 1, inputs + 1} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			if _, err := SimulateSuppressReset(cfg, l.Key, somePattern(width)); err == nil {
				t.Fatalf("%d-bit pattern accepted by a core with %d inputs", width, inputs)
			}
		})
	}
}

func TestScenarioCShadowRegisterLeaksKey(t *testing.T) {
	for _, prot := range []scan.Protection{scan.OraPBasic, scan.OraPModified} {
		cfg, l := buildChipConfig(t, prot, 2)
		out, err := SimulateShadowKey(cfg, l.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !out.CorrectResponse {
			t.Fatalf("%v: shadow register did not capture the key", prot)
		}
	}
}

func TestScenarioDXorTreeReconstructsBasicKey(t *testing.T) {
	cfg, l := buildChipConfig(t, scan.OraPBasic, 3)
	out, err := SimulateXorTree(cfg, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CorrectResponse {
		t.Fatal("XOR-tree reconstruction failed on the basic scheme (LFSR is linear; it must work)")
	}
}

func TestScenarioEFreezeFFsBasicVsModified(t *testing.T) {
	// The experiment behind Fig. 3: freezing the flip-flops gives the
	// attacker one correct response under the basic scheme, but under
	// the modified scheme the frozen (wrong) responses corrupt the key.
	basicCfg, basicL := buildChipConfig(t, scan.OraPBasic, 4)
	x := somePattern(basicCfg.Core.NumInputs())
	basicOut, err := SimulateFreezeFFs(basicCfg, basicL.Key, x)
	if err != nil {
		t.Fatal(err)
	}
	if !basicOut.CorrectResponse {
		t.Fatal("scenario (e) must succeed against the basic scheme — that is why Fig. 3 exists")
	}

	modCfg, modL := buildChipConfig(t, scan.OraPModified, 4)
	xm := somePattern(modCfg.Core.NumInputs())
	modOut, err := SimulateFreezeFFs(modCfg, modL.Key, xm)
	if err != nil {
		t.Fatal(err)
	}
	if modOut.CorrectResponse {
		t.Fatal("scenario (e) succeeded against the modified scheme — response feedback broken")
	}
}

func TestPayloadOrdering(t *testing.T) {
	// The countermeasures order the payload costs: (e) ≪ (a) < (b) < (c),
	// and (d) dominates everything once the XOR trees are sized.
	const n = 128
	cfg := lfsr.Config{N: n, Taps: lfsr.StandardTaps(n, 8), Inject: lfsr.AllInject(n)}
	sc := lfsr.UniformSchedule(4, 2)
	ps, err := Payloads(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	byScenario := map[string]Payload{}
	for _, p := range ps {
		byScenario[p.Scenario] = p
	}
	a, b, c, d, e := byScenario["a"], byScenario["b"], byScenario["c"], byScenario["d"], byScenario["e"]
	if !(e.GateEquivalents < a.GateEquivalents) {
		t.Fatalf("(e)=%v should be far below (a)=%v", e.GateEquivalents, a.GateEquivalents)
	}
	if !(a.GateEquivalents < b.GateEquivalents) {
		t.Fatalf("(a)=%v should be below (b)=%v — that is the interleaving countermeasure", a.GateEquivalents, b.GateEquivalents)
	}
	if !(b.GateEquivalents < c.GateEquivalents) {
		t.Fatalf("(b)=%v should be below (c)=%v", b.GateEquivalents, c.GateEquivalents)
	}
	if !(c.GateEquivalents < d.GateEquivalents) {
		t.Fatalf("(c)=%v should be below (d)=%v for a mixing LFSR", c.GateEquivalents, d.GateEquivalents)
	}
}

func TestPayloadAMatchesPaperArithmetic(t *testing.T) {
	// "Considering an 128-bit key register … roughly 64 NAND2 gates."
	p := PayloadA(128)
	if p.GateEquivalents != 64 {
		t.Fatalf("PayloadA(128) = %v GE, paper says ~64", p.GateEquivalents)
	}
}

func TestXorTreeCostGrowsWithMixing(t *testing.T) {
	// More seeds and free-run cycles mix seed bits into more cells, so
	// the attack-(d) XOR trees must grow — the designer's lever.
	const n = 64
	cfg := lfsr.Config{N: n, Taps: lfsr.StandardTaps(n, 8), Inject: lfsr.AllInject(n)}
	small, err := XorTreeGates(cfg, lfsr.UniformSchedule(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	big, err := XorTreeGates(cfg, lfsr.UniformSchedule(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("XOR-tree cost did not grow with mixing: %d vs %d", small, big)
	}
}

func TestXorTreeCostLFSRBeatsShiftRegister(t *testing.T) {
	// "This is exactly the reason for utilizing an LFSR as a key
	// register": without feedback taps a shift register mixes far less.
	const n = 64
	sc := lfsr.UniformSchedule(4, 6)
	withTaps := lfsr.Config{N: n, Taps: lfsr.StandardTaps(n, 8), Inject: lfsr.AllInject(n)}
	noTaps := lfsr.Config{N: n, Inject: lfsr.AllInject(n)}
	l, err := XorTreeGates(withTaps, sc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := XorTreeGates(noTaps, sc)
	if err != nil {
		t.Fatal(err)
	}
	if l <= s {
		t.Fatalf("LFSR XOR-tree cost %d not above shift register's %d", l, s)
	}
}

func TestSimulateXorTreeRejectsModified(t *testing.T) {
	cfg, l := buildChipConfig(t, scan.OraPModified, 5)
	if _, err := SimulateXorTree(cfg, l.Key); err == nil {
		t.Fatal("XOR-tree simulation accepted the modified scheme")
	}
}

func TestPayloadBFromLayoutQuantifiesCountermeasure(t *testing.T) {
	inter := trojanLayout(scan.InterleavedLayout(128, 1024, 8))
	tail := trojanLayout(scan.TailLayout(128, 1024, 8))
	if inter.GateEquivalents <= 4*tail.GateEquivalents {
		t.Fatalf("interleaving should multiply the payload: %v vs %v",
			inter.GateEquivalents, tail.GateEquivalents)
	}
	// The generic payloadB (one mux per cell) matches the interleaved
	// layout's pricing.
	if inter.GateEquivalents != payloadB(128).GateEquivalents {
		t.Fatalf("interleaved pricing %v != generic payloadB %v",
			inter.GateEquivalents, payloadB(128).GateEquivalents)
	}
}

// trojanLayout prices scenario (b) for a concrete scan-chain
// layout: one bypass mux per splice point (see scan.Layout), plus the
// single stem gate. With the paper's interleaved placement this equals
// payloadB; with an attacker-friendly tail placement it collapses to one
// mux per chain — the quantified value of the placement countermeasure.
func trojanLayout(l scan.Layout) Payload {
	muxes := l.BypassMuxCount()
	return Payload{
		Scenario:        "b",
		Description:     fmt.Sprintf("stem gating + %d bypass muxes (given layout)", muxes),
		GateEquivalents: 1 + geMux21*float64(muxes),
	}
}
