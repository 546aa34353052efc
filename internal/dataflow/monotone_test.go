package dataflow

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/rng"
)

// The property behind the one-sweep exactness guarantee: every
// analysis's per-node transfer must be monotone with respect to its
// lattice's join order,
//
//	A ⊑ B  (pointwise)  ⇒  T(A) ⊑ T(B),
//
// where a ⊑ b ⇔ join(a, b) = b. The joins live here because the sweeps
// never join: the pair planes join by bitwise AND (values join in the
// ternary lattice, the Eq and Anti proofs survive only when both sides
// carry them), taint sets by union, SCOAP scores by the pessimistic
// max. The tests fuzz the property the same way for every analysis:
// draw a random consistent assignment A, degrade it pointwise into
// B[i] = join(A[i], R[i]) with fresh random values R (so A ⊑ B by
// construction), and assert the transfer results satisfy
// join(T(A)[id], T(B)[id]) = T(B)[id] at every node.

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
	p, err := ir.Compile(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkMonotone runs the degradation fuzz for one analysis given its
// transfer, its lattice's join and equality, and a generator of random
// consistent values.
func checkMonotone[V any](t *testing.T, p *ir.Program, transfer func(id int, vals []V) V,
	join func(a, b V) V, equal func(a, b V) bool, random func(r *rng.Stream) V) {
	t.Helper()
	r := rng.NewNamed(2020, "dataflow-monotone")
	n := p.NumNodes()
	for round := 0; round < fuzzRounds; round++ {
		a := make([]V, n)
		b := make([]V, n)
		for i := 0; i < n; i++ {
			a[i] = random(r)
			b[i] = join(a[i], random(r))
		}
		for id := 0; id < n; id++ {
			ta := transfer(id, a)
			tb := transfer(id, b)
			if !equal(join(ta, tb), tb) {
				t.Fatalf("round %d node %d (%v): transfer not monotone: T(A)=%+v T(B)=%+v join=%+v",
					round, id, p.Ops[id], ta, tb, join(ta, tb))
			}
		}
	}
}

// equals is the equality of the comparable values.
func equals[V comparable](a, b V) bool { return a == b }

// randomTernary draws from the flat ternary lattice.
func randomTernary(r *rng.Stream) int8 {
	switch r.Intn(3) {
	case 0:
		return 0
	case 1:
		return 1
	}
	return Unknown
}

// randomPair draws a consistent pair value: when both ternary halves
// are known the proofs are forced by the values; otherwise Eq and Anti
// are free but mutually exclusive, and a half-known pair carries
// neither proof (no transfer or join produces such a proof, and the
// lattice order is only defined over consistent values).
func randomPair(r *rng.Stream) PairValue {
	v := PairValue{V0: randomTernary(r), V1: randomTernary(r)}
	switch {
	case v.V0 != Unknown && v.V1 != Unknown:
		v.Eq = v.V0 == v.V1
		v.Anti = v.V0 != v.V1
	case v.V0 == Unknown && v.V1 == Unknown:
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
func randomPlanes(r *rng.Stream) PairPlanes {
	var v PairPlanes
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
	transfer := func(id int, vals []PairPlanes) PairPlanes { return pairTransfer(p, p.Keys, id, vals) }
	join := func(a, b PairPlanes) PairPlanes {
		return PairPlanes{
			V0Is0: a.V0Is0 & b.V0Is0, V0Is1: a.V0Is1 & b.V0Is1,
			V1Is0: a.V1Is0 & b.V1Is0, V1Is1: a.V1Is1 & b.V1Is1,
			Eq: a.Eq & b.Eq, Anti: a.Anti & b.Anti,
		}
	}
	checkMonotone(t, p, transfer, join, equals[PairPlanes], randomPlanes)
}

func TestKeyTaintMonotone(t *testing.T) {
	p := monotoneProgram(t)
	words := (p.NumKeys() + 63) / 64
	bitOf := make([]int32, p.NumNodes())
	for i := range bitOf {
		bitOf[i] = -1
	}
	for i, id := range p.Keys {
		bitOf[id] = int32(i)
	}
	transfer := func(id int, vals []KeySet) KeySet { return taintTransfer(p, bitOf, words, id, vals) }
	join := func(a, b KeySet) KeySet { return union(words, a, b) }
	// Sets compare word by word, an empty zero value as all zeros.
	equal := func(a, b KeySet) bool {
		for i := 0; i < words; i++ {
			var aw, bw uint64
			if i < len(a.w) {
				aw = a.w[i]
			}
			if i < len(b.w) {
				bw = b.w[i]
			}
			if aw != bw {
				return false
			}
		}
		return true
	}
	// Random sets are drawn by joining a few solved taint values, which
	// keeps the word width consistent.
	base := KeyTaint(p)
	random := func(r *rng.Stream) KeySet {
		s := KeySet{}
		for i := r.Intn(3); i >= 0; i-- {
			s = join(s, base[r.Intn(len(base))])
		}
		return s
	}
	checkMonotone(t, p, transfer, join, equal, random)
}

// randomScore draws a SCOAP score, occasionally saturated.
func randomScore(r *rng.Stream) int32 {
	if r.Intn(8) == 0 {
		return Unreachable
	}
	return int32(r.Intn(1000))
}

func TestControllabilityMonotone(t *testing.T) {
	p := monotoneProgram(t)
	transfer := func(id int, vals []ControlValue) ControlValue { return ccTransfer(p, id, vals) }
	join := func(a, b ControlValue) ControlValue {
		return ControlValue{CC0: max(a.CC0, b.CC0), CC1: max(a.CC1, b.CC1)}
	}
	checkMonotone(t, p, transfer, join, equals[ControlValue],
		func(r *rng.Stream) ControlValue {
			return ControlValue{CC0: randomScore(r), CC1: randomScore(r)}
		})
}

func TestObservabilityMonotone(t *testing.T) {
	p := monotoneProgram(t)
	cc := Controllability(p)
	isPO := make([]bool, p.NumNodes())
	for _, o := range p.POs {
		isPO[o] = true
	}
	transfer := func(id int, vals []int32) int32 { return coTransfer(p, cc, isPO, id, vals) }
	join := func(a, b int32) int32 { return max(a, b) }
	checkMonotone(t, p, transfer, join, equals[int32], randomScore)
}
