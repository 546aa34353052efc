package dataflow_test

import (
	"fmt"
	"testing"

	"orap/internal/benchgen"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// scalarPair is the reference pair analysis for a single key input: a
// plain sweep in topological order over one ternary value per key-bit
// value, with the proofs derived exactly as dataflow.PairValue defines
// them. key -1 tracks no key bit.
func scalarPair(p *ir.Program, key int32) []dataflow.PairValue {
	const u = dataflow.Unknown
	vals := make([]dataflow.PairValue, p.NumNodes())
	for _, id := range p.Order {
		op, fi := p.Ops[id], p.FaninSpan(int(id))
		var v dataflow.PairValue
		switch op {
		case ir.OpInput:
			v = dataflow.PairValue{V0: u, V1: u, Eq: true}
			if id == key {
				v = dataflow.PairValue{V0: 0, V1: 1, Anti: true}
			}
		case ir.OpConst0:
			v = dataflow.PairValue{V0: 0, V1: 0, Eq: true}
		case ir.OpConst1:
			v = dataflow.PairValue{V0: 1, V1: 1, Eq: true}
		default:
			v.V0 = scalarFold(op, fi, func(f int32) int8 { return vals[f].V0 })
			v.V1 = scalarFold(op, fi, func(f int32) int8 { return vals[f].V1 })
			if v.V0 != u && v.V1 != u {
				v.Eq, v.Anti = v.V0 == v.V1, v.V0 != v.V1
				break
			}
			v.Eq = true
			for _, f := range fi {
				v.Eq = v.Eq && vals[f].Eq
			}
			if v.Eq {
				break
			}
			switch op {
			case ir.OpBuf, ir.OpNot:
				v.Anti = vals[fi[0]].Anti
			case ir.OpXor, ir.OpXnor:
				flips, proven := 0, true
				for _, f := range fi {
					if vals[f].Anti {
						flips++
					} else if !vals[f].Eq {
						proven = false
					}
				}
				v.Anti = proven && flips%2 == 1
			}
		}
		vals[id] = v
	}
	return vals
}

// scalarFold evaluates one gate over the ternary lattice {0, 1,
// Unknown}: a controlling fanin decides an AND/OR-family gate, and a
// two-input XOR/XNOR of one signal against itself is constant.
func scalarFold(op ir.Op, fi []int32, val func(int32) int8) int8 {
	const u = dataflow.Unknown
	not := func(v int8) int8 {
		if v == u {
			return u
		}
		return 1 - v
	}
	switch op {
	case ir.OpBuf:
		return val(fi[0])
	case ir.OpNot:
		return not(val(fi[0]))
	case ir.OpAnd, ir.OpNand, ir.OpOr, ir.OpNor:
		ctl := int8(0)
		if op == ir.OpOr || op == ir.OpNor {
			ctl = 1
		}
		out := 1 - ctl
		for _, f := range fi {
			switch val(f) {
			case ctl:
				out = ctl
			case u:
				if out != ctl {
					out = u
				}
			}
		}
		if op == ir.OpNand || op == ir.OpNor {
			return not(out)
		}
		return out
	case ir.OpXor, ir.OpXnor:
		out := int8(0)
		if len(fi) != 2 || fi[0] != fi[1] { // else x XOR x: 0 whatever x is
			for _, f := range fi {
				v := val(f)
				if v == u {
					return u
				}
				out ^= v
			}
		}
		if op == ir.OpXnor {
			return not(out)
		}
		return out
	}
	return u
}

// wideLockedDesigns locks a generated design with 64, 65 and 130 key
// bits, weighted and random XOR: one full slice, one key past it and
// three slices with a partial last one.
func wideLockedDesigns(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	prof, err := benchgen.ProfileByName("s38417")
	if err != nil {
		t.Fatal(err)
	}
	base, err := benchgen.Generate(prof.Scale(0.02), 2020)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*netlist.Circuit{}
	for _, keys := range []int{64, 65, 130} {
		w, err := lock.Weighted(base, lock.WeightedOptions{KeyBits: keys, ControlWidth: 3, Rand: rng.New(uint64(keys))})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("weighted%d", keys)] = w.Circuit
		x, err := lock.RandomXOR(base, keys, rng.New(uint64(keys)))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("randomxor%d", keys)] = x.Circuit
	}
	return out
}

// TestPairLanesMatchScalar solves the sliced pair analysis the way the
// audit does, one Pair call per 64-key slice, and checks every lane of
// every node against the scalar reference for that lane's key bit alone.
// Lanes past the slice's last key must equal the keyless analysis.
func TestPairLanesMatchScalar(t *testing.T) {
	cases := soundnessCircuits(t)
	for name, c := range wideLockedDesigns(t) {
		cases[name] = c
	}
	for name, c := range cases {
		if c.NumKeys() == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p := compile(t, c)
			keyless := scalarPair(p, -1)
			for lo := 0; lo < p.NumKeys(); lo += 64 {
				keys := p.Keys[lo:min(lo+64, p.NumKeys())]
				planes := dataflow.Pair(p, keys)
				for j := 0; j < 64; j++ {
					want := keyless
					if j < len(keys) {
						want = scalarPair(p, keys[j])
					}
					for id := range planes {
						if got := planes[id].Lane(j); got != want[id] {
							t.Fatalf("slice %d lane %d node %d (%v %s): sliced %+v, scalar %+v",
								lo/64, j, id, p.Ops[id], c.NameOf(id), got, want[id])
						}
					}
				}
			}
		})
	}
}
