package scan

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/gf2"
	"orap/internal/lfsr"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

// testCore returns a locked ripple adder split as 5 pins + 4 FFs on the
// input side and 1 pin + 4 FFs on the output side.
func testCore(t *testing.T, seed uint64) (*netlist.Circuit, *lock.Locked) {
	t.Helper()
	orig := circuits.RippleAdder(4) // 9 inputs, 5 outputs
	l, err := lock.RandomXOR(orig, 6, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return orig, l
}

// basicConfig builds an OraPBasic config with hand-made seeds (tests that
// need a *correct* key sequence use package orap instead; here we only
// exercise chip mechanics).
func basicConfig(t *testing.T, l *lock.Locked) Config {
	t.Helper()
	n := l.Circuit.NumKeys()
	cfg := Config{
		Core:       l.Circuit,
		RealPIs:    5,
		RealPOs:    1,
		Protection: OraPBasic,
		LFSR: lfsr.Config{
			N:      n,
			Taps:   lfsr.StandardTaps(n, 8),
			Inject: lfsr.AllInject(n),
		},
		Schedule:  lfsr.UniformSchedule(2, 1),
		Seeds:     []gf2.Vec{gf2.NewVec(n), gf2.NewVec(n)},
		MemInject: identity(n),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// scanInKey loads the key-register cells through the scan chains, as a
// tester may on a protected chip, where the cells sit in the chains. The
// chip must be in scan mode.
func (ch *Chip) scanInKey(v []bool) {
	ch.keyReg = gf2.FromBools(v)
	ch.unlocked = false
	ch.cycles += int64(ch.ChainLength())
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	_, l := testCore(t, 1)
	good := basicConfig(t, l)

	bad := good
	bad.RealPIs = 4 // 5 FF inputs vs 4 FF outputs
	if err := bad.Validate(); err == nil {
		t.Error("FF mismatch accepted")
	}

	bad = good
	bad.Seeds = bad.Seeds[:1]
	if err := bad.Validate(); err == nil {
		t.Error("seed/schedule mismatch accepted")
	}

	bad = good
	bad.MemInject = append([]int(nil), bad.MemInject...)
	bad.MemInject[0] = bad.MemInject[1] // duplicate position
	if err := bad.Validate(); err == nil {
		t.Error("duplicate inject position accepted")
	}

	bad = good
	bad.Protection = None
	bad.Key = nil
	if err := bad.Validate(); err == nil {
		t.Error("None protection without stored key accepted")
	}

	bad = good
	bad.Protection = OraPModified
	if err := bad.Validate(); err == nil {
		t.Error("modified protection without response points accepted")
	}
}

func TestConventionalChipUnlocksAndAnswers(t *testing.T) {
	orig, l := testCore(t, 2)
	cfg := Config{
		Core:       l.Circuit,
		RealPIs:    5,
		RealPOs:    1,
		Protection: None,
		Key:        l.Key,
	}
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	if !ch.Unlocked() {
		t.Fatal("chip not unlocked")
	}
	// Capture with known pins/FF state must match direct core simulation.
	r := rng.New(3)
	x := make([]bool, l.Circuit.NumInputs())
	for trial := 0; trial < 20; trial++ {
		r.Bits(x)
		ch.SetScanEnable(true)
		if err := ch.ScanInFFs(x[5:]); err != nil {
			t.Fatal(err)
		}
		ch.SetScanEnable(false)
		pinOut, err := ch.CaptureClock(x[:5])
		if err != nil {
			t.Fatal(err)
		}
		ch.SetScanEnable(true)
		ffOut, err := ch.ScanOutFFs()
		if err != nil {
			t.Fatal(err)
		}
		ch.SetScanEnable(false)
		want, err := sim.Eval(l.Circuit, x, l.Key)
		if err != nil {
			t.Fatal(err)
		}
		got := append(append([]bool(nil), pinOut...), ffOut...)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d output %d: chip %v, sim %v", trial, j, got[j], want[j])
			}
		}
	}
	_ = orig
}

func TestPulseGeneratorClearsKeyOnRisingEdgeOnly(t *testing.T) {
	_, l := testCore(t, 4)
	cfg := basicConfig(t, l)
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Load a non-zero key via scan (the register is scannable by design).
	ch.SetScanEnable(true)
	val := make([]bool, l.Circuit.NumKeys())
	val[0], val[3] = true, true
	// First rising edge already cleared; set after.
	ch.scanInKey(val)
	// Holding scan enable high must not clear.
	ch.SetScanEnable(true)
	if got := ch.Key(); !boolsEq(got, val) {
		t.Fatal("level-high scan enable cleared the key register")
	}
	// Falling edge must not clear.
	ch.SetScanEnable(false)
	if got := ch.Key(); !boolsEq(got, val) {
		t.Fatal("falling edge cleared the key register")
	}
	// Rising edge must clear.
	ch.SetScanEnable(true)
	if got := ch.Key(); !allFalse(got) {
		t.Fatal("rising edge did not clear the key register")
	}
}

func TestTrojanSuppressesReset(t *testing.T) {
	_, l := testCore(t, 5)
	cfg := basicConfig(t, l)
	ch, _ := New(cfg)
	ch.ArmTrojans(Trojans{SuppressKeyReset: true})
	ch.SetScanEnable(true)
	val := make([]bool, l.Circuit.NumKeys())
	val[1] = true
	ch.scanInKey(val)
	ch.SetScanEnable(false)
	ch.SetScanEnable(true) // rising edge, but reset suppressed
	if got := ch.Key(); !boolsEq(got, val) {
		t.Fatal("suppressed reset still cleared the register")
	}
}

func TestConventionalKeyRegisterNotScannable(t *testing.T) {
	_, l := testCore(t, 6)
	cfg := Config{Core: l.Circuit, RealPIs: 5, RealPOs: 1, Protection: None, Key: l.Key}
	ch, _ := New(cfg)
	ch.SetScanEnable(true)
	if _, err := ch.ScanOutKey(); err == nil {
		t.Fatal("conventional key register leaked via scan")
	}
}

func TestScanOpsRequireScanMode(t *testing.T) {
	_, l := testCore(t, 7)
	ch, _ := New(basicConfig(t, l))
	if err := ch.ScanInFFs(make([]bool, 4)); err == nil {
		t.Error("ScanInFFs outside scan mode accepted")
	}
	if _, err := ch.ScanOutFFs(); err == nil {
		t.Error("ScanOutFFs outside scan mode accepted")
	}
	ch.SetScanEnable(true)
	if _, err := ch.CaptureClock(make([]bool, 5)); err == nil {
		t.Error("CaptureClock during scan mode accepted")
	}
}

func TestLastCorrectResponseScansOut(t *testing.T) {
	// Section II-A: the one correct response an OraP chip can emit is the
	// last captured state before scan enable rises — but obtaining it for
	// a chosen input would require knowing the key-dependent state
	// sequence, so it does not enable attacks.
	_, l := testCore(t, 8)
	cfg := basicConfig(t, l)
	ch, _ := New(cfg)
	// Simulate an unlocked chip by scanning the correct key in (a test
	// convenience; a real chip gets it from the unlock sequence).
	ch.SetScanEnable(true)
	ch.scanInKey(l.Key)
	ch.ScanInFFs(make([]bool, 4))
	ch.SetScanEnable(false)

	pins := []bool{true, false, true, true, false}
	if _, err := ch.CaptureClock(pins); err != nil {
		t.Fatal(err)
	}
	x := append(append([]bool(nil), pins...), false, false, false, false)
	want, _ := sim.Eval(l.Circuit, x, l.Key)

	ch.SetScanEnable(true) // clears the key…
	got, err := ch.ScanOutFFs()
	if err != nil {
		t.Fatal(err)
	}
	// …but the captured flip-flop contents are still the correct response.
	if !boolsEq(got, want[1:]) {
		t.Fatalf("last response lost: got %v want %v", got, want[1:])
	}
	if !allFalse(ch.Key()) {
		t.Fatal("key register survived the rising edge")
	}
}

func TestUnlockWithWrongSeedsYieldsWrongKey(t *testing.T) {
	_, l := testCore(t, 9)
	cfg := basicConfig(t, l) // all-zero seeds: final key is all zero
	ch, _ := New(cfg)
	if err := ch.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	if !allFalse(ch.Key()) {
		t.Fatal("all-zero key sequence should unlock to the all-zero key")
	}
}

func boolsEq(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allFalse(a []bool) bool {
	for _, v := range a {
		if v {
			return false
		}
	}
	return true
}
