package dataflow_test

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// compile is the test helper every case goes through.
func compile(t testing.TB, c *netlist.Circuit) *ir.Program {
	t.Helper()
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatalf("compile %s: %v", c.Name, err)
	}
	return prog
}

// soundnessCircuits are small enough to enumerate exhaustively
// (primary inputs plus key inputs within ~12 bits) yet cover every
// opcode and the locked shapes the audit rules care about.
func soundnessCircuits(t testing.TB) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{
		"c17":       circuits.C17(),
		"fulladder": circuits.FullAdder(),
		"mux21":     circuits.Mux21(),
	}
	if l, err := lock.RandomXOR(circuits.Parity(8), 3, rng.New(11)); err != nil {
		t.Fatal(err)
	} else {
		out["parity8-randomxor"] = l.Circuit
	}
	if l, err := lock.RandomXOR(circuits.C17(), 3, rng.New(11)); err != nil {
		t.Fatal(err)
	} else {
		out["c17-randomxor"] = l.Circuit
	}
	if l, err := lock.Weighted(circuits.Comparator4(), lock.WeightedOptions{
		KeyBits: 6, ControlWidth: 3, Rand: rng.New(12),
	}); err != nil {
		t.Fatal(err)
	} else {
		out["cmp4-weighted"] = l.Circuit
	}
	if l, err := lock.SARLock(circuits.FullAdder(), 3, rng.New(13)); err != nil {
		t.Fatal(err)
	} else {
		out["fulladder-sarlock"] = l.Circuit
	}
	out["self-xor"] = selfXor()
	return out
}

// selfXor folds key material through the degenerate shapes: XOR(k, k)
// and XNOR(x, x) are constant whatever their input, so the key bit
// reaches no output.
func selfXor() *netlist.Circuit {
	c := netlist.New("self-xor")
	a, _ := c.AddInput("a")
	k, _ := c.AddKeyInput("keyinput0")
	x := c.MustAddGate(netlist.Xor, "x", a, k)
	g := c.MustAddGate(netlist.Xor, "g", k, k)
	h := c.MustAddGate(netlist.Xnor, "h", x, x)
	c.MarkOutput(c.MustAddGate(netlist.And, "o", g, h, a))
	return c
}

// evalInto evaluates one pattern into vals (one word per node, all ones
// or zero), leaving every node's concrete value readable.
func evalInto(p *ir.Program, vals []uint64, pi, key []bool) {
	clear(vals)
	for i, id := range p.PIs {
		if pi[i] {
			vals[id] = ^uint64(0)
		}
	}
	for i, id := range p.Keys {
		if key[i] {
			vals[id] = ^uint64(0)
		}
	}
	p.RunWords(vals, 1, p.Order)
}

// forEachAssignment enumerates every assignment of the program's
// primary inputs and key bits. It skips (and reports) programs too wide
// to enumerate so a fixture change cannot silently turn the exhaustive
// tests into no-ops.
func forEachAssignment(t *testing.T, p *ir.Program, fn func(pi, key []bool)) {
	t.Helper()
	n := p.NumInputs() + p.NumKeys()
	if n > 14 {
		t.Fatalf("circuit has %d input bits; too wide to enumerate", n)
	}
	pi := make([]bool, p.NumInputs())
	key := make([]bool, p.NumKeys())
	for m := 0; m < 1<<n; m++ {
		for i := range pi {
			pi[i] = m>>i&1 != 0
		}
		for i := range key {
			key[i] = m>>(len(pi)+i)&1 != 0
		}
		fn(pi, key)
	}
}

// TestConstSoundness checks ternary constant propagation, the pair
// domain's lane that tracks no key, against brute force: a node the
// lane calls constant must evaluate to that constant under every input
// and key assignment, and its two values must agree.
func TestConstSoundness(t *testing.T) {
	for name, c := range soundnessCircuits(t) {
		t.Run(name, func(t *testing.T) {
			p := compile(t, c)
			vals := dataflow.Pair(p, nil)
			concrete := make([]uint64, p.NumNodes())
			forEachAssignment(t, p, func(pi, key []bool) {
				evalInto(p, concrete, pi, key)
				for id := range vals {
					lane := vals[id].Lane(0)
					av := lane.V0
					if lane.V1 != av || !lane.Eq {
						t.Fatalf("node %d (%s): no-key lane %+v, want equal values and Eq", id, c.NameOf(id), lane)
					}
					if av == dataflow.Unknown {
						continue
					}
					if (concrete[id] != 0) != (av == 1) {
						t.Fatalf("node %d (%s): abstract constant %d, concrete %v under pi=%v key=%v",
							id, c.NameOf(id), av, concrete[id] != 0, pi, key)
					}
				}
			})
		})
	}
}

// TestPairSoundness checks the pair/key-difference domain against brute
// force, lane by lane: lane kb tracks key bit kb, so V0/V1 must match
// the concrete value under the respective value of that bit whenever
// known, an Eq proof means the node never depends on the bit, and an
// Anti proof means the node flips with the bit under every assignment
// of everything else.
func TestPairSoundness(t *testing.T) {
	for name, c := range soundnessCircuits(t) {
		if c.NumKeys() == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p := compile(t, c)
			planes := dataflow.Pair(p, p.Keys)
			v0 := make([]uint64, p.NumNodes())
			v1 := make([]uint64, p.NumNodes())
			for kb := range p.Keys {
				forEachAssignment(t, p, func(pi, key []bool) {
					if key[kb] {
						return // the pair tracks both values of bit kb itself
					}
					key[kb] = false
					evalInto(p, v0, pi, key)
					key[kb] = true
					evalInto(p, v1, pi, key)
					key[kb] = false
					for id := range planes {
						av := planes[id].Lane(kb)
						if av.V0 != dataflow.Unknown && (v0[id] != 0) != (av.V0 == 1) {
							t.Fatalf("bit %d node %d (%s): V0=%d, concrete %v", kb, id, c.NameOf(id), av.V0, v0[id] != 0)
						}
						if av.V1 != dataflow.Unknown && (v1[id] != 0) != (av.V1 == 1) {
							t.Fatalf("bit %d node %d (%s): V1=%d, concrete %v", kb, id, c.NameOf(id), av.V1, v1[id] != 0)
						}
						if av.Eq && v0[id] != v1[id] {
							t.Fatalf("bit %d node %d (%s): Eq proof but values differ under pi=%v key=%v",
								kb, id, c.NameOf(id), pi, key)
						}
						if av.Anti && v0[id] == v1[id] {
							t.Fatalf("bit %d node %d (%s): Anti proof but values agree under pi=%v key=%v",
								kb, id, c.NameOf(id), pi, key)
						}
					}
				})
			}
		})
	}
}

// TestTaintMatchesTransitiveFanout pins the key-taint domain against
// the structural definition it abstracts: node n carries bit kb's taint
// exactly when n lies in the key input's transitive fanout.
func TestTaintMatchesTransitiveFanout(t *testing.T) {
	for name, c := range soundnessCircuits(t) {
		if c.NumKeys() == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p := compile(t, c)
			taint := dataflow.KeyTaint(p)
			for kb, kid := range p.Keys {
				cone := p.TransitiveFanout(int(kid))
				for id := range taint {
					if taint[id].Has(kb) != cone[id] {
						t.Fatalf("bit %d node %d (%s): taint %v, cone %v",
							kb, id, c.NameOf(id), taint[id].Has(kb), cone[id])
					}
				}
			}
		})
	}
}

// TestScoapHandValues pins the SCOAP domains on a hand-computed
// circuit: g = AND(a, b) driving the only output, plus a dangling
// buffer nobody observes.
func TestScoapHandValues(t *testing.T) {
	c := netlist.New("scoap")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	g := c.MustAddGate(netlist.And, "g", a, b)
	dead := c.MustAddGate(netlist.Buf, "dead", a)
	if err := c.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	p := compile(t, c)

	cc := dataflow.Controllability(p)
	co := dataflow.Observability(p, cc)

	if cc[a] != (dataflow.ControlValue{CC0: 1, CC1: 1}) {
		t.Fatalf("cc[a] = %+v", cc[a])
	}
	// AND: CC0 = min(CC0 inputs)+1 = 2, CC1 = sum(CC1 inputs)+1 = 3.
	if cc[g] != (dataflow.ControlValue{CC0: 2, CC1: 3}) {
		t.Fatalf("cc[g] = %+v", cc[g])
	}
	if co[g] != 0 {
		t.Fatalf("co[g] = %d, want 0 at a primary output", co[g])
	}
	// Observing a through g costs CO(g) + CC1(b) + 1 = 2.
	if co[a] != 2 {
		t.Fatalf("co[a] = %d, want 2", co[a])
	}
	if co[dead] < dataflow.Unreachable {
		t.Fatalf("co[dead] = %d, want unreachable", co[dead])
	}
}

// TestScoapConstants pins the constant seeds: a constant's opposite
// value is unreachable.
func TestScoapConstants(t *testing.T) {
	c := netlist.New("scoap-const")
	a, _ := c.AddInput("a")
	k, _ := c.AddConst(false, "zero")
	g := c.MustAddGate(netlist.Or, "g", a, k)
	if err := c.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	p := compile(t, c)
	cc := dataflow.Controllability(p)
	if cc[k].CC0 != 0 || cc[k].CC1 < dataflow.Unreachable {
		t.Fatalf("cc[const0] = %+v", cc[k])
	}
	// OR through a constant-0 side input stays controllable both ways.
	if cc[g].CC0 != 2 || cc[g].CC1 != 2 {
		t.Fatalf("cc[g] = %+v", cc[g])
	}
}
