package attack

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

func TestSPSFindsAntiSATFlipSignal(t *testing.T) {
	orig := circuits.RippleAdder(4)
	l, err := lock.AntiSAT(orig, 6, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SPS(l.Circuit, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidate < 0 {
		t.Fatal("SPS found no key-dependent skewed signal in Anti-SAT")
	}
	// The flip signal is one with probability 2^-6 under random key
	// halves, i.e. skewed toward 0.
	var cand SPSFinding
	for _, f := range res.Findings {
		if f.Node == res.Candidate {
			cand = f
		}
	}
	if cand.Probability > 0.05 {
		t.Fatalf("candidate probability %.3f, expected near 0", cand.Probability)
	}

	// Removal: cutting the wire must restore the original function.
	cut, _, err := spsRemove(l.Circuit, cand)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]bool, cut.NumKeys())
	for v := 0; v < 1<<9; v++ {
		in := make([]bool, 9)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, in, nil)
		got, _ := sim.Eval(cut, in, key)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("SPS removal did not restore the function at %09b", v)
			}
		}
	}
}

func TestSPSNotApplicableToWeightedLocking(t *testing.T) {
	// The paper: OraP (+ weighted locking) "neither has signals with high
	// probability skew" — SPS must come back empty-handed.
	orig := circuits.RippleAdder(6)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 12, ControlWidth: 3, Rand: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SPS(l.Circuit, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidate >= 0 {
		t.Fatalf("SPS found a candidate (node %d) in weighted locking — it should not apply", res.Candidate)
	}
}

func TestSPSIgnoresKeyFreeSkew(t *testing.T) {
	// A wide AND of plain inputs is skewed but not key-dependent; the
	// attack must not nominate it.
	c := netlist.New("skewed")
	var ins []int
	for i := 0; i < 8; i++ {
		id, _ := c.AddInput(string(rune('a' + i)))
		ins = append(ins, id)
	}
	k, _ := c.AddKeyInput("keyinput0")
	and := c.MustAddGate(netlist.And, "wideand", ins...)
	out := c.MustAddGate(netlist.Xor, "out", and, k)
	c.MarkOutput(out)
	res, err := SPS(c, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if f.Node == and && f.KeyDependent {
			t.Fatal("key-free skewed AND flagged as key-dependent")
		}
	}
	if res.Candidate == and {
		t.Fatal("SPS nominated the key-free AND")
	}
}

func TestSPSOptionsValidated(t *testing.T) {
	if _, err := SPS(circuits.C17(), nil); err == nil {
		t.Fatal("nil random stream accepted")
	}
}

func TestSPSRemoveRangeChecked(t *testing.T) {
	if _, _, err := spsRemove(circuits.C17(), SPSFinding{Node: 999}); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}
}
