package dataflow_test

import (
	"fmt"
	"testing"

	"orap/internal/benchgen"
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
	return out
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

// TestConstSoundness checks the ternary constant domain against brute
// force: a node the domain calls constant must evaluate to that
// constant under every input and key assignment.
func TestConstSoundness(t *testing.T) {
	for name, c := range soundnessCircuits(t) {
		t.Run(name, func(t *testing.T) {
			p := compile(t, c)
			vals := dataflow.Run[int8](p, dataflow.NewConst(p), dataflow.Options{Workers: 1})
			concrete := make([]bool, p.NumNodes())
			forEachAssignment(t, p, func(pi, key []bool) {
				p.EvalInto(concrete, pi, key)
				for id, av := range vals {
					if av == dataflow.Unknown {
						continue
					}
					if concrete[id] != (av == 1) {
						t.Fatalf("node %d (%s): abstract constant %d, concrete %v under pi=%v key=%v",
							id, c.NameOf(id), av, concrete[id], pi, key)
					}
				}
			})
		})
	}
}

// TestPairSoundness checks the pair/key-difference domain against brute
// force, per key bit: V0/V1 must match the concrete value under the
// respective key-bit value whenever known, an Eq proof means the node
// never depends on the bit, and an Anti proof means the node flips with
// the bit under every assignment of everything else.
func TestPairSoundness(t *testing.T) {
	for name, c := range soundnessCircuits(t) {
		if c.NumKeys() == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p := compile(t, c)
			d := dataflow.NewPair(p)
			base := dataflow.Run[dataflow.PairValue](p, d, dataflow.Options{Workers: 1})
			v0 := make([]bool, p.NumNodes())
			v1 := make([]bool, p.NumNodes())
			for kb, kid := range p.Keys {
				vals := make([]dataflow.PairValue, len(base))
				copy(vals, base)
				d.SetKey(kid)
				dataflow.Rerun[dataflow.PairValue](p, d, vals, kid)
				forEachAssignment(t, p, func(pi, key []bool) {
					if key[kb] {
						return // the pair tracks both values of bit kb itself
					}
					key[kb] = false
					p.EvalInto(v0, pi, key)
					key[kb] = true
					p.EvalInto(v1, pi, key)
					key[kb] = false
					for id, av := range vals {
						if av.V0 != dataflow.Unknown && v0[id] != (av.V0 == 1) {
							t.Fatalf("bit %d node %d (%s): V0=%d, concrete %v", kb, id, c.NameOf(id), av.V0, v0[id])
						}
						if av.V1 != dataflow.Unknown && v1[id] != (av.V1 == 1) {
							t.Fatalf("bit %d node %d (%s): V1=%d, concrete %v", kb, id, c.NameOf(id), av.V1, v1[id])
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

// TestRerunMatchesFreshRun pins the incremental solver against the full
// sweep: starting from the keyless pair fixpoint, a Rerun seeded at the
// key input must land on exactly the fixpoint a fresh Run computes with
// the key selected from the start. Beside the soundness circuits, each
// of which fits one 64-position word of Rerun's dirty bitset, it runs a
// weighted-locked generated design of a few hundred nodes whose key
// gates carry IDs out of topological order, so the scan crosses word
// boundaries.
func TestRerunMatchesFreshRun(t *testing.T) {
	cases := soundnessCircuits(t)
	prof, err := benchgen.ProfileByName("s38417")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := benchgen.Generate(prof.Scale(0.02), 2020)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lock.Weighted(wide, lock.WeightedOptions{KeyBits: 24, ControlWidth: 3, Rand: rng.New(14)})
	if err != nil {
		t.Fatal(err)
	}
	cases["s38417-weighted"] = l.Circuit
	for name, c := range cases {
		if c.NumKeys() == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p := compile(t, c)
			d := dataflow.NewPair(p)
			base := dataflow.Run[dataflow.PairValue](p, d, dataflow.Options{Workers: 1})
			for _, kid := range p.Keys {
				inc := make([]dataflow.PairValue, len(base))
				copy(inc, base)
				d.SetKey(kid)
				visited := dataflow.Rerun[dataflow.PairValue](p, d, inc, kid)
				fresh := dataflow.Run[dataflow.PairValue](p, d, dataflow.Options{Workers: 1})
				for id := range fresh {
					if !d.Equal(inc[id], fresh[id]) {
						t.Fatalf("key node %d, node %d (%s): Rerun %+v, fresh Run %+v",
							kid, id, c.NameOf(id), inc[id], fresh[id])
					}
				}
				// The visited cone is the key input's transitive fanout,
				// in topological order.
				for i := 1; i < len(visited); i++ {
					if p.Pos[visited[i-1]] >= p.Pos[visited[i]] {
						t.Fatalf("key node %d: visited out of topological order at %d", kid, i)
					}
				}
				d.SetKey(-1)
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
			taint := dataflow.Run[dataflow.KeySet](p, dataflow.NewKeyTaint(p), dataflow.Options{Workers: 1})
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

	cc := dataflow.Run[dataflow.ControlValue](p, dataflow.NewControllability(p), dataflow.Options{Workers: 1})
	co := dataflow.Run[int32](p, dataflow.NewObservability(p, cc), dataflow.Options{Workers: 1})

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
	cc := dataflow.Run[dataflow.ControlValue](p, dataflow.NewControllability(p), dataflow.Options{Workers: 1})
	if cc[k].CC0 != 0 || cc[k].CC1 < dataflow.Unreachable {
		t.Fatalf("cc[const0] = %+v", cc[k])
	}
	// OR through a constant-0 side input stays controllable both ways.
	if cc[g].CC0 != 2 || cc[g].CC1 != 2 {
		t.Fatalf("cc[g] = %+v", cc[g])
	}
}

// workerDomains builds one instance of every shipped domain for p, each
// wrapped so the invariance and fuzz tests can treat them uniformly.
type domainCase struct {
	name string
	run  func(p *ir.Program, workers int) func(id int) string
}

// fingerprint renders one node's abstract value to a comparable string,
// letting heterogeneous value types share the invariance loop.
func workerCases() []domainCase {
	return []domainCase{
		{"const", func(p *ir.Program, w int) func(int) string {
			vals := dataflow.Run[int8](p, dataflow.NewConst(p), dataflow.Options{Workers: w})
			return func(id int) string { return fmt.Sprint(vals[id]) }
		}},
		{"pair", func(p *ir.Program, w int) func(int) string {
			d := dataflow.NewPair(p)
			if p.NumKeys() > 0 {
				d.SetKey(p.Keys[0])
			}
			vals := dataflow.Run[dataflow.PairValue](p, d, dataflow.Options{Workers: w})
			return func(id int) string { return fmt.Sprintf("%+v", vals[id]) }
		}},
		{"taint", func(p *ir.Program, w int) func(int) string {
			vals := dataflow.Run[dataflow.KeySet](p, dataflow.NewKeyTaint(p), dataflow.Options{Workers: w})
			return func(id int) string { return fmt.Sprint(vals[id].Bits()) }
		}},
		{"scoap", func(p *ir.Program, w int) func(int) string {
			cc := dataflow.Run[dataflow.ControlValue](p, dataflow.NewControllability(p), dataflow.Options{Workers: w})
			co := dataflow.Run[int32](p, dataflow.NewObservability(p, cc), dataflow.Options{Workers: w})
			return func(id int) string { return fmt.Sprintf("%+v/%d", cc[id], co[id]) }
		}},
	}
}

// TestRunWorkerInvariance asserts the fixpoint is bit-identical at any
// worker count for every shipped domain — the determinism contract the
// level sweep is built on.
func TestRunWorkerInvariance(t *testing.T) {
	l, err := lock.Weighted(circuits.RippleAdder(8), lock.WeightedOptions{
		KeyBits: 9, ControlWidth: 3, Rand: rng.New(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, l.Circuit)
	for _, dc := range workerCases() {
		t.Run(dc.name, func(t *testing.T) {
			serial := dc.run(p, 1)
			parallel := dc.run(p, 8)
			for id := 0; id < p.NumNodes(); id++ {
				if s, par := serial(id), parallel(id); s != par {
					t.Fatalf("node %d: workers=1 %s, workers=8 %s", id, s, par)
				}
			}
		})
	}
}
