package orap

import (
	"strings"
	"testing"

	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/scan"
)

// lockedAdder returns a weighted-locked ripple adder with the pin/FF split
// used across these tests (5 pins + 4 FFs in, 1 pin + 4 FFs out).
func lockedAdder(t *testing.T, seed uint64, keyBits int) (*netlist.Circuit, *lock.Locked) {
	t.Helper()
	orig := circuits.RippleAdder(4)
	l, err := lock.Weighted(orig, lock.WeightedOptions{
		KeyBits:      keyBits,
		ControlWidth: 3,
		KeyGates:     keyBits,
		Rand:         rng.New(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return orig, l
}

func TestProtectBasicUnlocksToKey(t *testing.T) {
	_, l := lockedAdder(t, 1, 12)
	cfg, err := Protect(l.Circuit, l.Key, 5, 1, scan.OraPBasic, Options{Rand: rng.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	if got := ch.Key(); !boolsEq(got, l.Key) {
		t.Fatalf("unlocked to %v, want %v", got, l.Key)
	}
}

func TestProtectBasicNoneOfTheSeedsIsTheKey(t *testing.T) {
	// The paper stresses that none of the stored values is the key
	// itself. With a mixing LFSR this holds for random keys; assert it
	// for this construction.
	_, l := lockedAdder(t, 3, 12)
	cfg, err := Protect(l.Circuit, l.Key, 5, 1, scan.OraPBasic, Options{Rand: rng.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range cfg.Seeds {
		if s.Len() == len(l.Key) && boolsEq(s.Bools(), l.Key) {
			t.Fatalf("seed %d equals the key — tamper memory would leak it", i)
		}
	}
}

func TestProtectBasicDifferentKeysDifferentSeeds(t *testing.T) {
	_, l := lockedAdder(t, 5, 12)
	cfgA, err := Protect(l.Circuit, l.Key, 5, 1, scan.OraPBasic, Options{Rand: rng.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]bool(nil), l.Key...)
	flipped[0] = !flipped[0]
	// A flipped key is wrong for the circuit, but sequence synthesis is
	// purely linear-algebraic and must still hit it exactly.
	cfgB, err := Protect(l.Circuit, flipped, 5, 1, scan.OraPBasic, Options{Rand: rng.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range cfgA.Seeds {
		if !cfgA.Seeds[i].Equal(cfgB.Seeds[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different keys produced identical key sequences")
	}
	chB, _ := scan.New(cfgB)
	chB.Unlock(nil)
	if !boolsEq(chB.Key(), flipped) {
		t.Fatal("flipped-key sequence does not unlock to the flipped key")
	}
}

func TestProtectModifiedUnlocksToKey(t *testing.T) {
	_, l := lockedAdder(t, 7, 12)
	cfg, err := Protect(l.Circuit, l.Key, 5, 1, scan.OraPModified, Options{Rand: rng.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protection != scan.OraPModified || len(cfg.RespInject) == 0 {
		t.Fatalf("config not modified-scheme: %+v", cfg.Protection)
	}
	ch, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	if got := ch.Key(); !boolsEq(got, l.Key) {
		t.Fatalf("modified scheme unlocked to %v, want %v", got, l.Key)
	}
}

func TestProtectModifiedUsesResponses(t *testing.T) {
	// The modified scheme's defining property: the generated key depends
	// on the circuit responses during unlock. Freezing the flip-flops at
	// a nonzero state (what the scenario-(e) Trojan does) must corrupt
	// the key.
	_, l := lockedAdder(t, 9, 12)
	cfg, err := Protect(l.Circuit, l.Key, 5, 1, scan.OraPModified, Options{Rand: rng.New(10)})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := scan.New(cfg)
	ch.SetScanEnable(true)
	ffs := make([]bool, cfg.NumFFs())
	for i := range ffs {
		ffs[i] = i%2 == 0
	}
	ch.ScanInFFs(ffs)
	ch.SetScanEnable(false)
	ch.ArmTrojans(scan.Trojans{FreezeFFs: true})
	if err := ch.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	if boolsEq(ch.Key(), l.Key) {
		t.Fatal("frozen flip-flops still produced the correct key — response feedback ineffective")
	}
}

func TestProtectNone(t *testing.T) {
	_, l := lockedAdder(t, 11, 12)
	cfg, err := Protect(l.Circuit, l.Key, 5, 1, scan.None, Options{Rand: rng.New(12)})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := scan.New(cfg)
	ch.Unlock(nil)
	if !boolsEq(ch.Key(), l.Key) {
		t.Fatal("conventional chip did not load its stored key")
	}
}

func TestProtectValidation(t *testing.T) {
	orig := circuits.RippleAdder(4)
	if _, err := Protect(orig, nil, 5, 1, scan.OraPBasic, Options{Rand: rng.New(1)}); err == nil {
		t.Error("unkeyed core accepted")
	}
	_, l := lockedAdder(t, 13, 12)
	if _, err := Protect(l.Circuit, l.Key[:3], 5, 1, scan.OraPBasic, Options{Rand: rng.New(1)}); err == nil {
		t.Error("wrong key width accepted")
	}
	if _, err := Protect(l.Circuit, l.Key, 5, 1, scan.OraPBasic, Options{}); err == nil {
		t.Error("missing Rand accepted")
	}
}

func TestProtectModifiedRejectsUnsupportedLayouts(t *testing.T) {
	// A core without flip-flops has no responses to feed back, and a
	// 1-bit register has no odd cell to take them: the modified scheme
	// refuses both rather than searching for another layout.
	_, l := lockedAdder(t, 16, 12)
	noFFs := l.Circuit.NumInputs()
	if _, err := Protect(l.Circuit, l.Key, noFFs, l.Circuit.NumOutputs(), scan.OraPModified, Options{Rand: rng.New(18)}); err == nil || !strings.Contains(err.Error(), "(core has none)") {
		t.Errorf("core without flip-flops: err = %v", err)
	}
	one, err := lock.RandomXOR(circuits.RippleAdder(4), 1, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	one.Key[0] = true // any nonzero key; synthesis must refuse before using it
	if _, err := Protect(one.Circuit, one.Key, 5, 1, scan.OraPModified, Options{Rand: rng.New(20)}); err == nil || !strings.Contains(err.Error(), "too few reseeding points to split (have 1)") {
		t.Errorf("1-bit key: err = %v", err)
	}
}

// TestProtectRejectsBadPinSplit checks that both schemes name a pin
// split the core cannot have, as the unprotected chip does, before
// their synthesis indexes flip-flops by it.
func TestProtectRejectsBadPinSplit(t *testing.T) {
	_, l := lockedAdder(t, 17, 12) // 9 inputs, 5 outputs
	cases := []struct {
		pins, pinOuts int
		want          string
	}{
		{5, 2, "scan: 4 FF outputs vs 3 FF inputs"},
		{5, 0, "scan: 4 FF outputs vs 5 FF inputs"},
		{5, 9, "scan: RealPOs 9 out of range"},
		{12, 1, "scan: RealPIs 12 out of range"},
		{-1, 1, "scan: RealPIs -1 out of range"},
	}
	for _, prot := range []scan.Protection{scan.OraPBasic, scan.OraPModified, scan.None} {
		for _, tc := range cases {
			_, err := Protect(l.Circuit, l.Key, tc.pins, tc.pinOuts, prot, Options{Rand: rng.New(18)})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%v with %d pins, %d pin outputs: err = %v, want %q", prot, tc.pins, tc.pinOuts, err, tc.want)
			}
		}
	}
}

func TestRegisterOverheadAccounting(t *testing.T) {
	cfg := lfsrConfig(256)
	ov := RegisterOverhead(cfg)
	if ov.PulseGenNANDs != 256 || ov.PulseGenInverters != 768 {
		t.Fatalf("pulse generator accounting wrong: %+v", ov)
	}
	if ov.ReseedXORs != 256 {
		t.Fatalf("reseed XORs = %d, want 256", ov.ReseedXORs)
	}
	if ov.TapXORs != 31 {
		t.Fatalf("tap XORs = %d, want 31", ov.TapXORs)
	}
	if ov.Gates() != 256+256+31 {
		t.Fatalf("Gates() = %d", ov.Gates())
	}
	if ov.PulseGenInverters != 768 {
		t.Fatalf("pulse-generator inverters = %d, want 768", ov.PulseGenInverters)
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

func TestProtectRejectsAllZeroKey(t *testing.T) {
	_, l := lockedAdder(t, 30, 12)
	zero := make([]bool, len(l.Key))
	// The zero key is not the circuit's correct key, but Protect cannot
	// know that — it must refuse regardless, because the cleared register
	// would present exactly this key during test mode.
	if _, err := Protect(l.Circuit, zero, 5, 1, scan.OraPBasic, Options{Rand: rng.New(31)}); err == nil {
		t.Fatal("all-zero key accepted for OraP protection")
	}
	// Conventional (scan.None) chips have no cleared-register hazard.
	if _, err := Protect(l.Circuit, zero, 5, 1, scan.None, Options{Rand: rng.New(32)}); err != nil {
		t.Fatalf("scan.None should accept any key: %v", err)
	}
}

func BenchmarkProtectBasic64(b *testing.B) {
	orig := circuits.RippleAdder(16)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 64, ControlWidth: 3, KeyGates: 21, Rand: rng.New(40)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Protect(l.Circuit, l.Key, 17, 1, scan.OraPBasic, Options{Rand: rng.New(41)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtectModified64(b *testing.B) {
	orig := circuits.RippleAdder(16)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 64, ControlWidth: 3, KeyGates: 21, Rand: rng.New(42)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Protect(l.Circuit, l.Key, 17, 1, scan.OraPModified, Options{Rand: rng.New(43)}); err != nil {
			b.Fatal(err)
		}
	}
}
