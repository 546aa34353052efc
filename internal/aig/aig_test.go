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
	if l.node() != 5 || !l.compl() {
		t.Fatalf("mkLit broken: %v", l)
	}
	if l.not().compl() || l.not().node() != 5 {
		t.Fatal("Not broken")
	}
	if ConstTrue.not() != ConstFalse {
		t.Fatal("constant complement broken")
	}
}

// numANDs is the number of AND nodes, dangling ones included.
func numANDs(g *AIG) int { return len(g.nodes) - 1 - len(g.pis) }

func TestAndSimplifications(t *testing.T) {
	g := newAIG()
	a := g.addPI()
	b := g.addPI()
	if g.and(a, ConstFalse) != ConstFalse {
		t.Error("a ∧ 0 != 0")
	}
	if g.and(a, ConstTrue) != a {
		t.Error("a ∧ 1 != a")
	}
	if g.and(a, a) != a {
		t.Error("a ∧ a != a")
	}
	if g.and(a, a.not()) != ConstFalse {
		t.Error("a ∧ ¬a != 0")
	}
	ab := g.and(a, b)
	if g.and(a, ab) != ab {
		t.Error("absorption a ∧ (a∧b) != a∧b")
	}
	if g.and(a.not(), ab) != ConstFalse {
		t.Error("contradiction ¬a ∧ (a∧b) != 0")
	}
	if n := numANDs(g); n != 1 {
		t.Fatalf("simplifiable ANDs created nodes: %d", n)
	}
}

func TestStructuralHashing(t *testing.T) {
	g := newAIG()
	a := g.addPI()
	b := g.addPI()
	x := g.and(a, b)
	y := g.and(b, a) // commuted: must hash to the same node
	if x != y {
		t.Fatal("strash missed commuted AND")
	}
	if n := numANDs(g); n != 1 {
		t.Fatalf("ANDs = %d, want 1", n)
	}
}

// evalAIGvsCircuit cross-checks FromProgram against the gate-level
// simulator on random patterns by re-simulating through the AIG.
func evalLit(g *AIG, l Lit, vals []bool) bool {
	v := evalNode(g, l.node(), vals)
	if l.compl() {
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
		if len(g.pis) != c.NumInputs()+c.NumKeys() {
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
	a := g.addPI()
	b := g.addPI()
	g.addPO(g.xor(a, b))
	ands, _ := g.CountUsed()
	if ands != 3 {
		t.Fatalf("XOR2 = %d ANDs, want 3", ands)
	}
}

// TestMux checks s ? a : b built from ANDs and complements.
func TestMux(t *testing.T) {
	g := newAIG()
	s := g.addPI()
	a := g.addPI()
	b := g.addPI()
	m := g.and(g.and(s, a).not(), g.and(s.not(), b).not()).not()
	for v := 0; v < 8; v++ {
		vals := make([]bool, len(g.nodes))
		vals[s.node()] = v&1 == 1
		vals[a.node()] = v>>1&1 == 1
		vals[b.node()] = v>>2&1 == 1
		want := vals[b.node()]
		if vals[s.node()] {
			want = vals[a.node()]
		}
		if got := evalLit(g, m, vals); got != want {
			t.Fatalf("mux wrong at %03b", v)
		}
	}
}

func TestCountUsedIgnoresDangling(t *testing.T) {
	g := newAIG()
	a := g.addPI()
	b := g.addPI()
	g.and(a, b) // dangling
	g.addPO(g.and(a, b.not()))
	ands, _ := g.CountUsed()
	if ands != 1 {
		t.Fatalf("used ANDs = %d, want 1", ands)
	}
	if n := numANDs(g); n != 2 {
		t.Fatalf("total ANDs = %d, want 2", n)
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
