package ir_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// TestOpMirrorsGateType pins the cast-compatibility contract between ir.Op
// and netlist.GateType.
func TestOpMirrorsGateType(t *testing.T) {
	pairs := []struct {
		op ir.Op
		gt netlist.GateType
	}{
		{ir.OpInput, netlist.Input}, {ir.OpConst0, netlist.Const0}, {ir.OpConst1, netlist.Const1},
		{ir.OpBuf, netlist.Buf}, {ir.OpNot, netlist.Not}, {ir.OpAnd, netlist.And},
		{ir.OpNand, netlist.Nand}, {ir.OpOr, netlist.Or}, {ir.OpNor, netlist.Nor},
		{ir.OpXor, netlist.Xor}, {ir.OpXnor, netlist.Xnor},
	}
	for _, p := range pairs {
		if uint8(p.op) != uint8(p.gt) {
			t.Fatalf("opcode %v = %d does not mirror gate type %v = %d", p.op, p.op, p.gt, uint8(p.gt))
		}
		if p.op.String() != p.gt.String() {
			t.Fatalf("opcode %v stringifies as %q, gate type as %q", p.op, p.op.String(), p.gt.String())
		}
	}
}

// testCircuit builds a small multi-level circuit exercising every
// non-constant gate type.
func testCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("irtest")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	k, _ := c.AddKeyInput("keyinput0")
	one, _ := c.AddConst(true, "one")
	n1 := c.MustAddGate(netlist.And, "n1", a, b)
	n2 := c.MustAddGate(netlist.Xor, "n2", n1, k)
	n3 := c.MustAddGate(netlist.Nor, "n3", a, n2, one)
	n4 := c.MustAddGate(netlist.Not, "n4", n3)
	n5 := c.MustAddGate(netlist.Nand, "n5", n2, n4)
	n6 := c.MustAddGate(netlist.Or, "n6", n5, b)
	n7 := c.MustAddGate(netlist.Xnor, "n7", n6, n1)
	n8 := c.MustAddGate(netlist.Buf, "n8", n7)
	c.MarkOutput(n5)
	c.MarkOutput(n8)
	return c
}

// lockedDesigns returns generated designs locked by schemes that rewire
// existing gates onto later key gates, so their node IDs are not in
// topological order.
func lockedDesigns(t *testing.T) []*netlist.Circuit {
	t.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	base, err := benchgen.Generate(prof.Scale(0.004), 3)
	if err != nil {
		t.Fatal(err)
	}
	wll, err := lock.Weighted(base, lock.WeightedOptions{KeyBits: 12, ControlWidth: 3, Rand: rng.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := lock.RandomXOR(base, 16, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sar, err := lock.SARLock(wll.Circuit, 6, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	return []*netlist.Circuit{wll.Circuit, rnd.Circuit, sar.Circuit}
}

// TestCompileMatchesNetlistViews checks the flat arrays against the
// reference walkers over the netlist's gate table: same topological
// order, same levels, same fanin and fanout adjacency, same depth.
func TestCompileMatchesNetlistViews(t *testing.T) {
	circuits := append([]*netlist.Circuit{testCircuit(t)}, lockedDesigns(t)...)
	nonTopo := false
	for _, c := range circuits {
		for id, g := range c.Gates {
			for _, f := range g.Fanin {
				nonTopo = nonTopo || f > id
			}
		}
		t.Run(c.Name, func(t *testing.T) { matchReference(t, c) })
	}
	if !nonTopo {
		t.Fatal("no fixture has a fanin with a higher ID than its sink")
	}
}

func matchReference(t *testing.T, c *netlist.Circuit) {
	p, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	order := refTopoOrder(c)
	if len(order) != len(p.Order) {
		t.Fatalf("order length %d vs reference %d", len(p.Order), len(order))
	}
	for i, id := range order {
		if int(p.Order[i]) != id {
			t.Fatalf("order[%d] = %d, reference has %d", i, p.Order[i], id)
		}
		if int(p.Pos[id]) != i {
			t.Fatalf("pos[%d] = %d, want %d", id, p.Pos[id], i)
		}
	}
	levels := refLevels(c, order)
	for id, lv := range levels {
		if int(p.Level[id]) != lv {
			t.Fatalf("level[%d] = %d, reference has %d", id, p.Level[id], lv)
		}
	}
	fanout := refFanoutLists(c)
	for id := range fanout {
		if got := toInts(p.FanoutSpan(id)); !reflect.DeepEqual(got, fanout[id]) {
			t.Fatalf("node %d fanout %v, reference has %v", id, got, fanout[id])
		}
	}
	for id, g := range c.Gates {
		if got := toInts(p.FaninSpan(id)); !reflect.DeepEqual(got, g.Fanin) {
			t.Fatalf("node %d fanin %v, netlist has %v", id, got, g.Fanin)
		}
	}
	depth := 0
	for _, o := range c.POs {
		depth = max(depth, levels[o])
	}
	if p.Depth() != depth {
		t.Fatalf("depth %d vs reference %d", p.Depth(), depth)
	}
}

// toInts widens a program span; an empty span becomes nil, like an
// empty netlist fanin list.
func toInts(ids []int32) []int {
	var out []int
	for _, id := range ids {
		out = append(out, int(id))
	}
	return out
}

// TestOrderLevelMonotone checks that node levels never decrease along
// Order, which bdd.InputOrder relies on to rank inputs by depth.
func TestOrderLevelMonotone(t *testing.T) {
	p := ir.MustCompile(testCircuit(t))
	for i := 1; i < len(p.Order); i++ {
		if p.Level[p.Order[i]] < p.Level[p.Order[i-1]] {
			t.Fatalf("level falls from %d to %d at order position %d", p.Level[p.Order[i-1]], p.Level[p.Order[i]], i)
		}
	}
}

// TestEvalAgainstTruth evaluates the scalar and word kernels against an
// independent truth model on every input combination.
func TestEvalAgainstTruth(t *testing.T) {
	c := testCircuit(t)
	p := ir.MustCompile(c)
	// Reference: n1=a&b, n2=n1^k, n3=!(a|n2|1)=false, n4=true,
	// n5=!(n2&n4)=!n2, n6=n5|b, n7=!(n6^n1), n8=n7. POs: n5, n8.
	truth := func(a, b, k bool) (bool, bool) {
		n1 := a && b
		n2 := n1 != k
		n5 := !n2
		n6 := n5 || b
		n7 := !(n6 != n1)
		return n5, n7
	}
	words := make([]uint64, p.NumNodes())
	for bits := 0; bits < 8; bits++ {
		a, b, k := bits&1 != 0, bits&2 != 0, bits&4 != 0
		w5, w8 := truth(a, b, k)
		out, err := p.Eval([]bool{a, b}, []bool{k})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != w5 || out[1] != w8 {
			t.Fatalf("Eval(a=%v b=%v k=%v) = %v, want [%v %v]", a, b, k, out, w5, w8)
		}
		// Word kernel: replicate the scalar pattern across all 64 lanes.
		for i, id := range p.Inputs {
			var w uint64
			if []bool{a, b, k}[i] {
				w = ^uint64(0)
			}
			words[id] = w
		}
		p.RunWords(words, 1)
		for i, want := range []bool{w5, w8} {
			got := words[p.POs[i]]
			var exp uint64
			if want {
				exp = ^uint64(0)
			}
			if got != exp {
				t.Fatalf("RunWords PO %d on a=%v b=%v k=%v: got %x want %x", i, a, b, k, got, exp)
			}
		}
	}
}

// TestCompileRejectsCycle checks that ir.Compile names the loop, in driver
// order, and that the defect's node path matches the fanin edges.
func TestCompileRejectsCycle(t *testing.T) {
	c := netlist.New("cyclic")
	a, _ := c.AddInput("a")
	g1 := c.MustAddGate(netlist.And, "loop1", a, a)
	g2 := c.MustAddGate(netlist.Or, "loop2", g1, a)
	g3 := c.MustAddGate(netlist.And, "loop3", g2, a)
	c.MarkOutput(g3)
	// Introduce a back edge by hand (builders cannot, by construction).
	c.Gates[g1].Fanin[1] = g3
	_, err := ir.Compile(c)
	var de *ir.DefectError
	if !errors.As(err, &de) {
		t.Fatalf("Compile error %v, want a *DefectError", err)
	}
	// The DFS enters the loop at loop1 and closes it at loop1's fanin
	// loop3, so the reported path starts at loop2.
	want := `ir: circuit "cyclic": combinational cycle: loop2 -> loop3 -> loop1 -> loop2`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if len(de.Defects) != 1 || de.Defects[0].Kind != ir.DefectCycle {
		t.Fatalf("defects %+v, want one cycle", de.Defects)
	}
	cyc := de.Defects[0].Cycle
	if !reflect.DeepEqual(cyc, []int{g2, g3, g1}) || de.Defects[0].Node != g2 {
		t.Fatalf("cycle %v at node %d, want [%d %d %d] at %d", cyc, de.Defects[0].Node, g2, g3, g1, g2)
	}
	for i, id := range cyc {
		next := cyc[(i+1)%len(cyc)]
		drives := false
		for _, f := range c.Gates[next].Fanin {
			drives = drives || f == id
		}
		if !drives {
			t.Fatalf("cycle %v is not in driver order: %d does not drive %d", cyc, id, next)
		}
	}
}

// TestCompileListsEveryDefect checks that ir.Compile reports every arity
// defect, not the first, and that arity defects keep the cycle search
// from running while an undriven net does not.
func TestCompileListsEveryDefect(t *testing.T) {
	build := func() (c *netlist.Circuit, a, g, y int) {
		c = netlist.New("broken")
		a, _ = c.AddInput("a")
		b, _ := c.AddInput("b")
		g = c.MustAddGate(netlist.And, "g", a, b)
		y = c.MustAddGate(netlist.Not, "y", g)
		c.MarkOutput(y)
		return
	}
	defects := func(c *netlist.Circuit) []string {
		_, err := ir.Compile(c)
		var de *ir.DefectError
		if !errors.As(err, &de) {
			t.Fatalf("Compile error %v, want a *DefectError", err)
		}
		var out []string
		for _, d := range de.Defects {
			out = append(out, fmt.Sprintf("%d@%d: %v", d.Kind, d.Node, d.Err))
		}
		return out
	}

	// g = AND(y) and y = NOT(g, a): two arity defects hiding a cycle.
	c, a, g, y := build()
	c.Gates[g].Fanin = []int{y}
	c.Gates[y].Fanin = append(c.Gates[y].Fanin, a)
	want := []string{
		fmt.Sprintf(`%d@%d: AND gate "g" must have at least 2 fanins, has 1`, ir.DefectArity, g),
		fmt.Sprintf(`%d@%d: NOT gate "y" must have exactly 1 fanin, has 2`, ir.DefectArity, y),
	}
	if got := defects(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("defects\n%q\nwant\n%q", got, want)
	}
	if _, err := ir.Compile(c); err.Error() != `ir: circuit "broken": AND gate "g" must have at least 2 fanins, has 1 (and 1 more defects)` {
		t.Fatalf("error text %q", err)
	}

	c, _, g, y = build()
	c.Gates[g].Fanin[1] = y
	c.Gates = append(c.Gates, netlist.Gate{Type: netlist.Input}) // an orphan input
	want = []string{
		fmt.Sprintf(`%d@4: net "n4" has no driver: an Input-type node registered as neither primary nor key input`, ir.DefectUndriven),
		fmt.Sprintf(`%d@%d: combinational cycle: y -> g -> y`, ir.DefectCycle, y),
	}
	if got := defects(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("defects\n%q\nwant\n%q", got, want)
	}
}

// TestTransitiveCones compares the CSR cone walks against the reference
// walker over the netlist's gate table.
func TestTransitiveCones(t *testing.T) {
	for _, c := range append([]*netlist.Circuit{testCircuit(t)}, lockedDesigns(t)[:1]...) {
		p := ir.MustCompile(c)
		fanout := refFanoutLists(c)
		fanins := func(id int) []int { return c.Gates[id].Fanin }
		fanouts := func(id int) []int { return fanout[id] }
		for id := 0; id < p.NumNodes(); id++ {
			if !reflect.DeepEqual(p.TransitiveFanout(id), refCone(c, id, fanouts)) {
				t.Fatalf("%s: TransitiveFanout(%d) differs", c.Name, id)
			}
			if !reflect.DeepEqual(p.TransitiveFanin(id), refCone(c, id, fanins)) {
				t.Fatalf("%s: TransitiveFanin(%d) differs", c.Name, id)
			}
		}
	}
}
