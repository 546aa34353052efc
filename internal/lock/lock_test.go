package lock

import (
	"fmt"
	"testing"

	"orap/internal/audit"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

// assertEquivalentUnderKey exhaustively (up to 2^inputs ≤ 2^12) checks that
// the locked circuit with the correct key matches the original, then
// confirms the audit's symbolic equivalence proof reaches the same
// verdict over every input pattern at once.
func assertEquivalentUnderKey(t *testing.T, orig *netlist.Circuit, l *Locked) {
	t.Helper()
	rep, err := audit.KeyEquivalence(l.Circuit, orig, l.Key, audit.ExactOptions{})
	if err != nil {
		t.Fatalf("symbolic equivalence proof: %v", err)
	}
	if rep.HasErrors() {
		t.Fatalf("symbolic equivalence proof rejected the stored key:\n%s", rep)
	}
	n := orig.NumInputs()
	if n > 12 {
		t.Fatalf("circuit too wide for exhaustive check: %d inputs", n)
	}
	for v := 0; v < 1<<uint(n); v++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		want, err := sim.Eval(orig, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Eval(l.Circuit, in, l.Key)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("input %b output %d: locked+key %v, original %v", v, j, got[j], want[j])
			}
		}
	}
}

// countWrongKeyMismatch returns how many of the sampled wrong keys change
// at least one output on at least one of the sampled inputs.
func countWrongKeyMismatch(t *testing.T, orig *netlist.Circuit, l *Locked, keys int, r *rng.Stream) int {
	t.Helper()
	n := orig.NumInputs()
	corrupted := 0
	key := make([]bool, len(l.Key))
	for k := 0; k < keys; k++ {
		r.Bits(key)
		same := true
		for i := range key {
			if key[i] != l.Key[i] {
				same = false
				break
			}
		}
		if same {
			continue
		}
		diff := false
		in := make([]bool, n)
		for v := 0; v < 256 && !diff; v++ {
			r.Bits(in)
			want, _ := sim.Eval(orig, in, nil)
			got, _ := sim.Eval(l.Circuit, in, key)
			for j := range want {
				if want[j] != got[j] {
					diff = true
					break
				}
			}
		}
		if diff {
			corrupted++
		}
	}
	return corrupted
}

func TestRandomXOREquivalence(t *testing.T) {
	r := rng.New(1)
	for _, build := range []func() *netlist.Circuit{circuits.C17, circuits.FullAdder, circuits.Comparator4} {
		orig := build()
		l, err := RandomXOR(orig, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		if l.Circuit.NumKeys() != 4 || len(l.Key) != 4 {
			t.Fatalf("key shape wrong: %d/%d", l.Circuit.NumKeys(), len(l.Key))
		}
		assertEquivalentUnderKey(t, orig, l)
	}
}

func TestRandomXORWrongKeyCorrupts(t *testing.T) {
	r := rng.New(2)
	orig := circuits.C17()
	l, err := RandomXOR(orig, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := countWrongKeyMismatch(t, orig, l, 20, r); got < 15 {
		t.Fatalf("only %d/20 wrong keys corrupted any output", got)
	}
}

func TestRandomXORTooManyKeyBits(t *testing.T) {
	r := rng.New(3)
	if _, err := RandomXOR(circuits.C17(), 1000, r); err == nil {
		t.Fatal("absurd key size accepted")
	}
}

func TestRandomXORDoesNotModifyOriginal(t *testing.T) {
	r := rng.New(4)
	orig := circuits.C17()
	nodes := orig.NumNodes()
	if _, err := RandomXOR(orig, 3, r); err != nil {
		t.Fatal(err)
	}
	if orig.NumNodes() != nodes || orig.NumKeys() != 0 {
		t.Fatal("original circuit was modified")
	}
}

func TestWeightedEquivalence(t *testing.T) {
	r := rng.New(5)
	orig := circuits.RippleAdder(4) // 9 inputs, 5 outputs
	l, err := Weighted(orig, WeightedOptions{KeyBits: 9, ControlWidth: 3, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if l.Circuit.NumKeys() != 9 {
		t.Fatalf("keys = %d, want 9", l.Circuit.NumKeys())
	}
	assertEquivalentUnderKey(t, orig, l)
}

func TestWeightedHighActuation(t *testing.T) {
	// With NAND control gates of width 3, a random wrong key actuates
	// each key gate with probability 1 - 2^-3; nearly every wrong key
	// must corrupt outputs.
	r := rng.New(6)
	orig := circuits.RippleAdder(4)
	l, err := Weighted(orig, WeightedOptions{KeyBits: 9, ControlWidth: 3, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if got := countWrongKeyMismatch(t, orig, l, 30, r); got < 27 {
		t.Fatalf("only %d/30 wrong keys corrupted outputs; weighted locking should actuate nearly always", got)
	}
}

func TestWeightedKeyGateCountDefault(t *testing.T) {
	r := rng.New(7)
	orig := circuits.RippleAdder(8)
	l, err := Weighted(orig, WeightedOptions{KeyBits: 12, ControlWidth: 3, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	// Default: 12/3 = 4 key gates, i.e. 4 XOR/XNOR named kg0_0..kg0_3.
	for g := 0; g < 4; g++ {
		if _, ok := l.Circuit.NodeByName(fmt.Sprintf("kg0_%d", g)); !ok {
			t.Fatalf("key gate kg0_%d missing", g)
		}
	}
	if _, ok := l.Circuit.NodeByName("kg0_4"); ok {
		t.Fatal("unexpected extra key gate kg0_4")
	}
}

func TestWeightedExplicitKeyGates(t *testing.T) {
	r := rng.New(8)
	orig := circuits.RippleAdder(4)
	l, err := Weighted(orig, WeightedOptions{KeyBits: 6, ControlWidth: 3, KeyGates: 6, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalentUnderKey(t, orig, l)
}

func TestWeightedValidatesOptions(t *testing.T) {
	r := rng.New(9)
	orig := circuits.C17()
	cases := []WeightedOptions{
		{KeyBits: 0, ControlWidth: 3, Rand: r},
		{KeyBits: 6, ControlWidth: 0, Rand: r},
		{KeyBits: 2, ControlWidth: 3, Rand: r},
		{KeyBits: 6, ControlWidth: 3, Rand: nil},
	}
	for i, o := range cases {
		if _, err := Weighted(orig, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestSARLockEquivalence(t *testing.T) {
	r := rng.New(10)
	orig := circuits.C17()
	l, err := SARLock(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if l.Circuit.NumKeys() != orig.NumInputs() {
		t.Fatalf("keys = %d, want %d", l.Circuit.NumKeys(), orig.NumInputs())
	}
	assertEquivalentUnderKey(t, orig, l)
}

func TestSARLockSinglePointCorruption(t *testing.T) {
	// Under any wrong key k, SARLock corrupts exactly the input x = k.
	r := rng.New(11)
	orig := circuits.C17()
	l, err := SARLock(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]bool(nil), l.Key...)
	wrong[2] = !wrong[2]
	mismatches := 0
	var mismatchAt int
	for v := 0; v < 32; v++ {
		in := make([]bool, 5)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, in, nil)
		got, _ := sim.Eval(l.Circuit, in, wrong)
		for j := range want {
			if want[j] != got[j] {
				mismatches++
				mismatchAt = v
				break
			}
		}
	}
	if mismatches != 1 {
		t.Fatalf("wrong key corrupted %d inputs, want exactly 1", mismatches)
	}
	// The corrupted input must equal the wrong key pattern.
	for i := range wrong {
		if wrong[i] != (mismatchAt>>uint(i)&1 == 1) {
			t.Fatalf("corruption at input %05b, want the wrong key pattern", mismatchAt)
		}
	}
}

func TestAntiSATEquivalence(t *testing.T) {
	r := rng.New(12)
	orig := circuits.C17()
	l, err := AntiSAT(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if l.Circuit.NumKeys() != 2*orig.NumInputs() {
		t.Fatalf("keys = %d, want %d", l.Circuit.NumKeys(), 2*orig.NumInputs())
	}
	assertEquivalentUnderKey(t, orig, l)
}

func TestAntiSATEqualHalvesAlwaysCorrect(t *testing.T) {
	// Any key with K1 == K2 unlocks Anti-SAT (the classical equivalence
	// class), not just the stored one.
	r := rng.New(13)
	orig := circuits.C17()
	l, err := AntiSAT(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	n := orig.NumInputs()
	alt := make([]bool, 2*n)
	for i := 0; i < n; i++ {
		alt[i] = !l.Key[i]
		alt[n+i] = !l.Key[n+i]
	}
	lAlt := &Locked{Circuit: l.Circuit, Key: alt}
	assertEquivalentUnderKey(t, orig, lAlt)
}

func TestAntiSATUnequalHalvesCorrupt(t *testing.T) {
	r := rng.New(14)
	orig := circuits.C17()
	l, err := AntiSAT(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	n := orig.NumInputs()
	wrong := append([]bool(nil), l.Key...)
	wrong[0] = !wrong[0] // K1 != K2 now
	mismatches := 0
	for v := 0; v < 32; v++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, in, nil)
		got, _ := sim.Eval(l.Circuit, in, wrong)
		for j := range want {
			if want[j] != got[j] {
				mismatches++
				break
			}
		}
	}
	if mismatches != 1 {
		t.Fatalf("unequal halves corrupted %d inputs, want exactly 1", mismatches)
	}
}

func TestFaultImpactScoresShape(t *testing.T) {
	r := rng.New(15)
	c := circuits.C17()
	scores, err := faultImpactScores(ir.MustCompile(c), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != c.NumNodes() {
		t.Fatalf("scores length %d != nodes %d", len(scores), c.NumNodes())
	}
	// Node G16 feeds both outputs; G10 only one. G16 must score at least
	// as high on the reachability component.
	g16, _ := c.NodeByName("G16")
	g10, _ := c.NodeByName("G10")
	if scores[g16] <= 0 || scores[g10] <= 0 {
		t.Fatal("live internal nodes should have positive scores")
	}
}
