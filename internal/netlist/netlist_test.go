// Tests of circuit construction. Graph questions about a built circuit
// (order, levels, fanout, cones, cycles) are answered by its compiled
// ir.Program, so those tests compile this package's fixtures; this is
// an external test package because ir imports netlist.
package netlist_test

import (
	"errors"
	"strings"
	"testing"

	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/netlist"
)

func buildSmall(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("small")
	a, err := c.AddInput("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddInput("b")
	if err != nil {
		t.Fatal(err)
	}
	k, err := c.AddKeyInput("keyinput0")
	if err != nil {
		t.Fatal(err)
	}
	g1 := c.MustAddGate(netlist.And, "g1", a, b)
	g2 := c.MustAddGate(netlist.Xor, "g2", g1, k)
	if err := c.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	return c
}

func nodeID(t *testing.T, c *netlist.Circuit, name string) int {
	t.Helper()
	n, ok := c.NodeByName(name)
	if !ok {
		t.Fatalf("no node named %q", name)
	}
	return n
}

func TestBuildAndValidate(t *testing.T) {
	c := buildSmall(t)
	if _, err := ir.Compile(c); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if c.NumInputs() != 2 || c.NumKeys() != 1 || c.NumOutputs() != 1 {
		t.Fatalf("bad shape: %d inputs %d keys %d outputs", c.NumInputs(), c.NumKeys(), c.NumOutputs())
	}
	if c.NumNodes() != 5 {
		t.Fatalf("expected 5 nodes, got %d", c.NumNodes())
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c := netlist.New("dup")
	if _, err := c.AddInput("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInput("x"); err == nil {
		t.Fatal("duplicate input name accepted")
	}
}

func TestGateArityRules(t *testing.T) {
	c := netlist.New("arity")
	a, _ := c.AddInput("a")
	if _, err := c.AddGate(netlist.Not, "n", a, a); err == nil {
		t.Error("NOT with 2 fanins accepted")
	}
	if _, err := c.AddGate(netlist.And, "x", a); err == nil {
		t.Error("AND with 1 fanin accepted")
	}
	if _, err := c.AddGate(netlist.And, "y", a, 999); err == nil {
		t.Error("fanin out of range accepted")
	}
	if _, err := c.AddGate(netlist.Input, "z"); err == nil {
		t.Error("AddGate(Input) accepted")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	c := buildSmall(t)
	p := ir.MustCompile(c)
	for id, g := range c.Gates {
		for _, f := range g.Fanin {
			if p.Pos[f] >= p.Pos[id] {
				t.Fatalf("node %d appears before its fanin %d", id, f)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	c := netlist.New("cyc")
	a, _ := c.AddInput("a")
	g1 := c.MustAddGate(netlist.And, "g1", a, a)
	// Manually create a cycle g1 <-> g2.
	g2 := c.MustAddGate(netlist.Or, "g2", g1, a)
	c.Gates[g1].Fanin[1] = g2
	_, err := ir.Compile(c)
	var de *ir.DefectError
	if !errors.As(err, &de) || de.Defects[len(de.Defects)-1].Kind != ir.DefectCycle {
		t.Fatalf("Compile error %v, want a cycle defect", err)
	}
}

func TestLevelsAndDepth(t *testing.T) {
	c := buildSmall(t)
	p := ir.MustCompile(c)
	// inputs at level 0, g1 at 1, g2 at 2
	if lg1, lg2 := p.Level[nodeID(t, c, "g1")], p.Level[nodeID(t, c, "g2")]; lg1 != 1 || lg2 != 2 {
		t.Fatalf("levels wrong: g1=%d g2=%d", lg1, lg2)
	}
	if d := p.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := buildSmall(t)
	cl := c.Clone()
	g1, _ := cl.NodeByName("g1")
	cl.Gates[g1].Fanin[0] = 0
	orig, _ := c.NodeByName("g1")
	if c.Gates[orig].Fanin[0] == 0 && orig != 0 {
		// fanin[0] was node "a"; ensure it wasn't 0 before concluding.
		a, _ := c.NodeByName("a")
		if a != 0 {
			t.Fatal("Clone shares fanin storage with original")
		}
	}
	cl.Name = "changed"
	if c.Name == "changed" {
		t.Fatal("Clone shares name")
	}
	if _, ok := cl.NodeByName("g2"); !ok {
		t.Fatal("Clone lost name index")
	}
}

func TestGateCountExcludesInverters(t *testing.T) {
	c := netlist.New("inv")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	n := c.MustAddGate(netlist.Not, "n", a)
	bf := c.MustAddGate(netlist.Buf, "bf", b)
	g := c.MustAddGate(netlist.Nand, "g", n, bf)
	c.MarkOutput(g)
	if got := c.GateCount(); got != 1 {
		t.Fatalf("GateCount = %d, want 1 (NOT/BUF excluded)", got)
	}
	if s := ir.MustCompile(c).Summary(); !strings.Contains(s, "gates=1 inv=1 buf=1") {
		t.Fatalf("summary wrong: %s", s)
	}
}

func TestFanoutLists(t *testing.T) {
	c := buildSmall(t)
	p := ir.MustCompile(c)
	g1 := nodeID(t, c, "g1")
	if fo := p.FanoutSpan(nodeID(t, c, "a")); len(fo) != 1 || int(fo[0]) != g1 {
		t.Fatalf("fanout of a = %v, want [%d]", fo, g1)
	}
	if fo := p.FanoutSpan(nodeID(t, c, "g2")); len(fo) != 0 {
		t.Fatalf("fanout of output gate should be empty, got %v", fo)
	}
}

func TestTransitiveCones(t *testing.T) {
	c := buildSmall(t)
	p := ir.MustCompile(c)
	g2 := nodeID(t, c, "g2")
	fanin := p.TransitiveFanin(g2)
	for id := range c.Gates {
		if !fanin[id] {
			t.Fatalf("node %d not in fanin cone of the only output", id)
		}
	}
	fanout := p.TransitiveFanout(nodeID(t, c, "a"))
	if fanout[nodeID(t, c, "keyinput0")] {
		t.Fatal("key input wrongly in fanout cone of a")
	}
	if !fanout[g2] {
		t.Fatal("output missing from fanout cone of a")
	}
}

func TestGateTypeHelpers(t *testing.T) {
	cases := []struct {
		t    netlist.GateType
		name string
		inv  bool
	}{
		{netlist.And, "AND", false},
		{netlist.Nand, "NAND", true},
		{netlist.Or, "OR", false},
		{netlist.Nor, "NOR", true},
		{netlist.Xor, "XOR", false},
		{netlist.Xnor, "XNOR", true},
		{netlist.Not, "NOT", true},
		{netlist.Buf, "BUF", false},
	}
	for _, tc := range cases {
		if tc.t.String() != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.t, tc.t.String(), tc.name)
		}
		if tc.t.Inverting() != tc.inv {
			t.Errorf("%v.Inverting() = %v, want %v", tc.t, tc.t.Inverting(), tc.inv)
		}
	}
}

func TestRename(t *testing.T) {
	c := buildSmall(t)
	g1, _ := c.NodeByName("g1")
	if err := c.Rename(g1, "renamed"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.NodeByName("g1"); ok {
		t.Fatal("old name still resolves")
	}
	id, ok := c.NodeByName("renamed")
	if !ok || id != g1 {
		t.Fatalf("new name resolves to %d, want %d", id, g1)
	}
}

// TestRenameClashKeepsNames checks that a refused rename changes
// nothing: every name still resolves to its node.
func TestRenameClashKeepsNames(t *testing.T) {
	c := buildSmall(t)
	b := nodeID(t, c, "b")
	if err := c.Rename(b, "a"); err == nil {
		t.Fatal("rename onto an existing name accepted")
	}
	if got := c.NameOf(b); got != "b" {
		t.Fatalf("NameOf(b) = %q after the failed rename, want b", got)
	}
	for i := 0; i < c.NumNodes(); i++ {
		if got, ok := c.NodeByName(c.NameOf(i)); !ok || got != i {
			t.Fatalf("name %q resolves to %d (%v), want %d", c.NameOf(i), got, ok, i)
		}
	}
}

func TestDanglingNodes(t *testing.T) {
	// dangling counts the non-input nodes outside every output's cone,
	// which check reports as dangling gates or dead cones.
	dangling := func(c *netlist.Circuit) int {
		rep := check.Circuit(c)
		return len(rep.ByRule(check.RuleDangling)) + len(rep.ByRule(check.RuleDeadCone))
	}
	c := buildSmall(t)
	if d := dangling(c); d != 0 {
		t.Fatalf("unexpected %d dangling nodes", d)
	}
	c.MustAddGate(netlist.Or, "orphan", nodeID(t, c, "a"), nodeID(t, c, "b"))
	if d := dangling(c); d != 1 {
		t.Fatalf("expected 1 dangling node, got %d", d)
	}
}

func TestIsKeyInput(t *testing.T) {
	c := buildSmall(t)
	k, _ := c.NodeByName("keyinput0")
	a, _ := c.NodeByName("a")
	if !c.IsKeyInput(k) || c.IsKeyInput(a) {
		t.Fatal("IsKeyInput misclassifies")
	}
}

func TestSummaryMentionsName(t *testing.T) {
	c := buildSmall(t)
	if s := ir.MustCompile(c).Summary(); !strings.Contains(s, "small") {
		t.Fatalf("summary %q does not mention circuit name", s)
	}
}

// TestTopoOrderCycleNamesGates is the regression test for the cycle
// failure mode: the error must name gates on the cycle so callers can
// locate it, not just report a count.
func TestTopoOrderCycleNamesGates(t *testing.T) {
	c := netlist.New("cyclic")
	a, _ := c.AddInput("a")
	g1 := c.MustAddGate(netlist.And, "loop1", a, a)
	g2 := c.MustAddGate(netlist.Or, "loop2", g1, a)
	g3 := c.MustAddGate(netlist.And, "loop3", g2, a)
	c.MarkOutput(g3)
	// Close the cycle loop1 -> loop2 -> loop3 -> loop1 behind AddGate's back.
	c.Gates[g1].Fanin[1] = g3
	_, err := ir.Compile(c)
	if err == nil {
		t.Fatal("Compile accepted a cyclic circuit")
	}
	for _, want := range []string{"loop1", "loop2", "loop3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cycle error %q does not name gate %s", err, want)
		}
	}
}

// TestFindCycleAcyclic confirms a circuit built through AddGate alone
// has no cycle to report.
func TestFindCycleAcyclic(t *testing.T) {
	if _, err := ir.Compile(buildSmall(t)); err != nil {
		t.Fatalf("Compile refused an acyclic circuit: %v", err)
	}
}

// TestCloneKeepsSrcLines confirms source-line metadata survives Clone.
func TestCloneKeepsSrcLines(t *testing.T) {
	c := buildSmall(t)
	c.SetSrcLine(0, 7)
	cl := c.Clone()
	if cl.SrcLine(0) != 7 {
		t.Fatalf("clone lost source line: got %d, want 7", cl.SrcLine(0))
	}
	if c.SrcLine(99) != 0 {
		t.Fatal("SrcLine of unknown node should be 0")
	}
}
