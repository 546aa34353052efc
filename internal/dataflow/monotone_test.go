package dataflow_test

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/rng"
)

// The property behind the engine's exactness guarantee: every shipped
// domain's Transfer must be monotone with respect to its Join order,
//
//	A ⊑ B  (pointwise)  ⇒  Transfer(A) ⊑ Transfer(B),
//
// where a ⊑ b ⇔ Join(a, b) = b. The tests fuzz it the same way for
// every domain: draw a random consistent assignment A, degrade it
// pointwise into B[i] = Join(A[i], R[i]) with fresh random values R
// (so A ⊑ B by construction), and assert the transfer results satisfy
// Join(T(A)[id], T(B)[id]) = T(B)[id] at every node.

const fuzzRounds = 64

// monotoneProgram is the fuzz fixture: a weighted-locked adder mixing
// every opcode family, key material and reconvergence.
func monotoneProgram(t *testing.T) *ir.Program {
	t.Helper()
	l, err := lock.Weighted(circuits.RippleAdder(6), lock.WeightedOptions{
		KeyBits: 6, ControlWidth: 3, Rand: rng.New(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	return compile(t, l.Circuit)
}

// checkMonotone runs the degradation fuzz for one domain given a
// generator of random consistent abstract values.
func checkMonotone[V any](t *testing.T, p *ir.Program, d dataflow.Domain[V], random func(r *rng.Stream) V) {
	t.Helper()
	r := rng.NewNamed(2020, "dataflow-monotone")
	n := p.NumNodes()
	for round := 0; round < fuzzRounds; round++ {
		a := make([]V, n)
		b := make([]V, n)
		for i := 0; i < n; i++ {
			a[i] = random(r)
			b[i] = d.Join(a[i], random(r))
		}
		for id := 0; id < n; id++ {
			ta := d.Transfer(id, a)
			tb := d.Transfer(id, b)
			if !d.Equal(d.Join(ta, tb), tb) {
				t.Fatalf("round %d node %d (%v): Transfer not monotone: T(A)=%+v T(B)=%+v join=%+v",
					round, id, p.Ops[id], ta, tb, d.Join(ta, tb))
			}
		}
	}
}

// randomTernary draws from the flat ternary lattice.
func randomTernary(r *rng.Stream) int8 {
	switch r.Intn(3) {
	case 0:
		return 0
	case 1:
		return 1
	}
	return dataflow.Unknown
}

func TestConstMonotone(t *testing.T) {
	p := monotoneProgram(t)
	checkMonotone[int8](t, p, dataflow.NewConst(p), randomTernary)
}

// randomPair draws a consistent pair value: when both ternary halves
// are known the proofs are forced by the values; otherwise Eq and Anti
// are free but mutually exclusive, and a half-known pair carries
// neither proof (no transfer or join produces such a proof, and the
// lattice order is only defined over consistent values).
func randomPair(r *rng.Stream) dataflow.PairValue {
	v := dataflow.PairValue{V0: randomTernary(r), V1: randomTernary(r)}
	switch {
	case v.V0 != dataflow.Unknown && v.V1 != dataflow.Unknown:
		v.Eq = v.V0 == v.V1
		v.Anti = v.V0 != v.V1
	case v.V0 == dataflow.Unknown && v.V1 == dataflow.Unknown:
		switch r.Intn(3) {
		case 0:
			v.Eq = true
		case 1:
			v.Anti = true
		}
	}
	return v
}

// randomPlanes draws every one of the 64 lanes as a consistent pair
// value.
func randomPlanes(r *rng.Stream) dataflow.PairPlanes {
	var v dataflow.PairPlanes
	for j := 0; j < 64; j++ {
		l, bit := randomPair(r), uint64(1)<<j
		switch l.V0 {
		case 0:
			v.V0Is0 |= bit
		case 1:
			v.V0Is1 |= bit
		}
		switch l.V1 {
		case 0:
			v.V1Is0 |= bit
		case 1:
			v.V1Is1 |= bit
		}
		if l.Eq {
			v.Eq |= bit
		}
		if l.Anti {
			v.Anti |= bit
		}
	}
	return v
}

func TestPairMonotone(t *testing.T) {
	p := monotoneProgram(t)
	checkMonotone[dataflow.PairPlanes](t, p, dataflow.NewPair(p, p.Keys), randomPlanes)
}

func TestKeyTaintMonotone(t *testing.T) {
	p := monotoneProgram(t)
	d := dataflow.NewKeyTaint(p)
	base := dataflow.Run[dataflow.KeySet](p, d)
	// Random sets are drawn by joining a few solved taint values, which
	// keeps the word width consistent without exporting a constructor.
	random := func(r *rng.Stream) dataflow.KeySet {
		s := dataflow.KeySet{}
		for i := r.Intn(3); i >= 0; i-- {
			s = d.Join(s, base[r.Intn(len(base))])
		}
		return s
	}
	checkMonotone[dataflow.KeySet](t, p, d, random)
}

// randomScore draws a SCOAP score, occasionally saturated.
func randomScore(r *rng.Stream) int32 {
	if r.Intn(8) == 0 {
		return dataflow.Unreachable
	}
	return int32(r.Intn(1000))
}

func TestControllabilityMonotone(t *testing.T) {
	p := monotoneProgram(t)
	checkMonotone[dataflow.ControlValue](t, p, dataflow.NewControllability(p),
		func(r *rng.Stream) dataflow.ControlValue {
			return dataflow.ControlValue{CC0: randomScore(r), CC1: randomScore(r)}
		})
}

func TestObservabilityMonotone(t *testing.T) {
	p := monotoneProgram(t)
	cc := dataflow.Run[dataflow.ControlValue](p, dataflow.NewControllability(p))
	checkMonotone[int32](t, p, dataflow.NewObservability(p, cc), randomScore)
}
