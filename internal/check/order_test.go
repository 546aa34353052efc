package check_test

import (
	"reflect"
	"sort"
	"testing"

	"orap/internal/check"
	"orap/internal/netlist"
)

// buildMessy assembles a circuit that trips rules from every hygiene
// group at once — dangling gate, dead cone, unused input, constant
// output, misnamed key, non-XOR key shape — so the canonical report
// order is actually exercised across rule boundaries.
func buildMessy(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("messy")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	if _, err := c.AddInput("unused"); err != nil {
		t.Fatal(err)
	}
	k, err := c.AddKeyInput("oddname")
	if err != nil {
		t.Fatal(err)
	}
	one, _ := c.AddConst(true, "one")
	stuck := c.MustAddGate(netlist.Or, "stuck", a, one)    // const-out
	keyed := c.MustAddGate(netlist.And, "keyed", stuck, k) // non-XOR key shape
	dead := c.MustAddGate(netlist.And, "deadsrc", a, b)    // dead cone root
	c.MustAddGate(netlist.Not, "dangling", dead)           // dangling, makes deadsrc a dead cone
	out := c.MustAddGate(netlist.Or, "out", keyed, b)      // live output
	if err := c.MarkOutput(out); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReportCanonicalOrder pins the deterministic diagnostic order:
// rule catalog order first, node ID second, source line third — and
// identical reports across repeated runs.
func TestReportCanonicalOrder(t *testing.T) {
	c := buildMessy(t)
	rep1 := check.Circuit(c)
	rep2 := check.Circuit(c)
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("two checks of the same circuit differ:\n%s\nvs\n%s", rep1, rep2)
	}
	rules := map[string]bool{}
	for _, d := range rep1.Findings {
		rules[d.Rule] = true
	}
	for _, want := range []string{check.RuleDangling, check.RuleDeadCone, check.RuleUnusedInput,
		check.RuleConstOut, check.RuleKeyNaming, check.RuleKeyGateShape} {
		if !rules[want] {
			t.Fatalf("fixture no longer trips %s; report:\n%s", want, rep1)
		}
	}
	rank := map[string]int{
		check.RuleCycle: 0, check.RuleUndriven: 1, check.RuleArity: 2,
		check.RuleDangling: 3, check.RuleDeadCone: 4, check.RuleUnusedInput: 5,
		check.RuleConstOut: 6, check.RuleKeyUnobservable: 7, check.RuleKeyNaming: 8,
		check.RuleKeyGateShape: 9,
	}
	ordered := sort.SliceIsSorted(rep1.Findings, func(i, j int) bool {
		a, b := rep1.Findings[i], rep1.Findings[j]
		if rank[a.Rule] != rank[b.Rule] {
			return rank[a.Rule] < rank[b.Rule]
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Line < b.Line
	})
	if !ordered {
		t.Fatalf("diagnostics not in canonical order:\n%s", rep1)
	}
}

// Reports sort on the structural early-exit path too.
func TestStructuralReportSorted(t *testing.T) {
	c := netlist.New("broken")
	a, _ := c.AddInput("a")
	g := c.MustAddGate(netlist.And, "g", a, a)
	c.Gates[g].Fanin = c.Gates[g].Fanin[:1] // arity violation
	n := c.MustAddGate(netlist.Not, "n", g)
	c.Gates[n].Fanin = append(c.Gates[n].Fanin, a) // second arity violation
	rep1 := check.Circuit(c)
	rep2 := check.Circuit(c)
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("structural reports differ across runs")
	}
	for i := 1; i < len(rep1.Findings); i++ {
		if rep1.Findings[i-1].Node > rep1.Findings[i].Node {
			t.Fatalf("structural diagnostics out of node order:\n%s", rep1)
		}
	}
}
