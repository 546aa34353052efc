package aig

import (
	"fmt"
	"testing"

	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

func TestLitHelpers(t *testing.T) {
	l := mkLit(5, true)
	if l.Node() != 5 || !l.Compl() {
		t.Fatalf("mkLit broken: %v", l)
	}
	if l.Not().Compl() || l.Not().Node() != 5 {
		t.Fatal("Not broken")
	}
	if ConstTrue.Not() != ConstFalse {
		t.Fatal("constant complement broken")
	}
}

func TestAndSimplifications(t *testing.T) {
	g := newAIG()
	a := g.AddPI()
	b := g.AddPI()
	if g.And(a, ConstFalse) != ConstFalse {
		t.Error("a ∧ 0 != 0")
	}
	if g.And(a, ConstTrue) != a {
		t.Error("a ∧ 1 != a")
	}
	if g.And(a, a) != a {
		t.Error("a ∧ a != a")
	}
	if g.And(a, a.Not()) != ConstFalse {
		t.Error("a ∧ ¬a != 0")
	}
	ab := g.And(a, b)
	if g.And(a, ab) != ab {
		t.Error("absorption a ∧ (a∧b) != a∧b")
	}
	if g.And(a.Not(), ab) != ConstFalse {
		t.Error("contradiction ¬a ∧ (a∧b) != 0")
	}
	if g.NumANDs() != 1 {
		t.Fatalf("simplifiable ANDs created nodes: %d", g.NumANDs())
	}
}

func TestStructuralHashing(t *testing.T) {
	g := newAIG()
	a := g.AddPI()
	b := g.AddPI()
	x := g.And(a, b)
	y := g.And(b, a) // commuted: must hash to the same node
	if x != y {
		t.Fatal("strash missed commuted AND")
	}
	if g.NumANDs() != 1 {
		t.Fatalf("ANDs = %d, want 1", g.NumANDs())
	}
}

// evalAIGvsCircuit cross-checks FromProgram against the gate-level
// simulator on random patterns by re-simulating through the AIG.
func evalLit(g *AIG, l Lit, vals []bool) bool {
	v := evalNode(g, l.Node(), vals)
	if l.Compl() {
		return !v
	}
	return v
}

func evalNode(g *AIG, id int, vals []bool) bool {
	if id == 0 {
		return true
	}
	n := g.nodes[id]
	if n.isPI {
		return vals[id]
	}
	return evalLit(g, n.f0, vals) && evalLit(g, n.f1, vals)
}

func TestFromCircuitPreservesFunction(t *testing.T) {
	for _, build := range []func() *netlist.Circuit{circuits.C17, circuits.FullAdder, circuits.Comparator4, circuits.Mux21} {
		c := build()
		g, err := FromProgram(ir.MustCompile(c))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumPIs() != c.NumInputs()+c.NumKeys() {
			t.Fatalf("%s: PI count mismatch", c.Name)
		}
		n := c.NumInputs()
		for v := 0; v < 1<<uint(n); v++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = v>>uint(i)&1 == 1
			}
			want, err := sim.Eval(c, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]bool, len(g.nodes))
			for i, pi := range g.pis {
				vals[pi] = in[i]
			}
			for j, o := range g.pos {
				if got := evalLit(g, o, vals); got != want[j] {
					t.Fatalf("%s input %b output %d: AIG %v, circuit %v", c.Name, v, j, got, want[j])
				}
			}
		}
	}
}

func TestFromCircuitSharesLogic(t *testing.T) {
	// Two identical AND gates in the netlist must map to one AIG node.
	c := netlist.New("dup")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	g1 := c.MustAddGate(netlist.And, "g1", a, b)
	g2 := c.MustAddGate(netlist.And, "g2", a, b)
	o := c.MustAddGate(netlist.Or, "o", g1, g2)
	c.MarkOutput(o)
	g, err := FromProgram(ir.MustCompile(c))
	if err != nil {
		t.Fatal(err)
	}
	// OR(x, x) = x, so the whole circuit collapses to one AND node.
	ands, _ := g.CountUsed()
	if ands != 1 {
		t.Fatalf("used ANDs = %d, want 1 (sharing + absorption)", ands)
	}
}

func TestBalancedAndReducesDepth(t *testing.T) {
	// A 16-input AND as a chain would be depth 15; balanced it is 4.
	c := netlist.New("wide")
	ids := make([]int, 16)
	for i := range ids {
		ids[i], _ = c.AddInput(fmt.Sprintf("x%d", i))
	}
	o := c.MustAddGate(netlist.And, "wideand", ids...)
	c.MarkOutput(o)
	g, err := FromProgram(ir.MustCompile(c))
	if err != nil {
		t.Fatal(err)
	}
	_, levels := g.CountUsed()
	if levels != 4 {
		t.Fatalf("balanced 16-AND depth = %d, want 4", levels)
	}
}

func TestXorCost(t *testing.T) {
	g := newAIG()
	a := g.AddPI()
	b := g.AddPI()
	g.AddPO(g.Xor(a, b))
	ands, _ := g.CountUsed()
	if ands != 3 {
		t.Fatalf("XOR2 = %d ANDs, want 3", ands)
	}
}

func TestMux(t *testing.T) {
	g := newAIG()
	s := g.AddPI()
	a := g.AddPI()
	b := g.AddPI()
	m := g.Mux(s, a, b)
	for v := 0; v < 8; v++ {
		vals := make([]bool, len(g.nodes))
		vals[s.Node()] = v&1 == 1
		vals[a.Node()] = v>>1&1 == 1
		vals[b.Node()] = v>>2&1 == 1
		want := vals[b.Node()]
		if vals[s.Node()] {
			want = vals[a.Node()]
		}
		if got := evalLit(g, m, vals); got != want {
			t.Fatalf("mux wrong at %03b", v)
		}
	}
}

func TestCountUsedIgnoresDangling(t *testing.T) {
	g := newAIG()
	a := g.AddPI()
	b := g.AddPI()
	g.And(a, b) // dangling
	g.AddPO(g.And(a, b.Not()))
	ands, _ := g.CountUsed()
	if ands != 1 {
		t.Fatalf("used ANDs = %d, want 1", ands)
	}
	if g.NumANDs() != 2 {
		t.Fatalf("total ANDs = %d, want 2", g.NumANDs())
	}
}

func TestFromCircuitRandomCrossCheck(t *testing.T) {
	c := circuits.RippleAdder(6)
	g, err := FromProgram(ir.MustCompile(c))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	in := make([]bool, c.NumInputs())
	for trial := 0; trial < 200; trial++ {
		r.Bits(in)
		want, _ := sim.Eval(c, in, nil)
		vals := make([]bool, len(g.nodes))
		for i, pi := range g.pis {
			vals[pi] = in[i]
		}
		for j, o := range g.pos {
			if evalLit(g, o, vals) != want[j] {
				t.Fatalf("trial %d output %d differs", trial, j)
			}
		}
	}
}
