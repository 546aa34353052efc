package check

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orap/internal/netlist"
)

// corpus maps each seeded-defect file to the rules it must fire. Files
// absent from the map (clean.bench, locked_clean.bench) must produce no
// diagnostics at all, serving as the non-firing case for every rule.
var corpus = map[string][]string{
	"cycle.bench":            {RuleCycle},
	"dup_def.bench":          {RuleDupDef},
	"multi_driven.bench":     {RuleMultiDriven},
	"undefined.bench":        {RuleUndefined},
	"unknown_op.bench":       {RuleUnknownOp},
	"syntax.bench":           {RuleSyntax},
	"dangling.bench":         {RuleDangling},
	"dead_cone.bench":        {RuleDeadCone, RuleDangling},
	"const_out.bench":        {RuleConstOut},
	"unused_input.bench":     {RuleUnusedInput},
	"key_unobservable.bench": {RuleKeyUnobservable},
	"key_unused.bench":       {RuleKeyUnobservable},
	"key_naming.bench":       {RuleKeyNaming},
	"key_shape.bench":        {RuleKeyGateShape},
}

func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.bench"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus found: %v", err)
	}
	fired := map[string]bool{}
	for _, path := range files {
		name := filepath.Base(path)
		_, rep, err := File(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, seeded := corpus[name]
		if !seeded {
			if len(rep.Findings) != 0 {
				t.Errorf("%s: clean corpus file produced diagnostics:\n%s", name, rep)
			}
			continue
		}
		for _, rule := range want {
			if len(rep.ByRule(rule)) == 0 {
				t.Errorf("%s: rule %s did not fire; got:\n%s", name, rule, rep)
			}
			fired[rule] = true
		}
	}
	// Every source-expressible rule must have fired somewhere.
	for _, rules := range corpus {
		for _, rule := range rules {
			if !fired[rule] {
				t.Errorf("rule %s never fired across the corpus", rule)
			}
		}
	}
}

// TestCorpusSeverities pins the severity of each rule as documented.
func TestCorpusSeverities(t *testing.T) {
	sev := map[string]Severity{
		RuleCycle:        Error,
		RuleDupDef:       Error,
		RuleMultiDriven:  Error,
		RuleUndefined:    Error,
		RuleUnknownOp:    Error,
		RuleSyntax:       Error,
		RuleDangling:     Warning,
		RuleDeadCone:     Warning,
		RuleConstOut:     Warning,
		RuleUnusedInput:  Info,
		RuleKeyNaming:    Warning,
		RuleKeyGateShape: Info,
	}
	for file, rules := range corpus {
		_, rep, err := File(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range rules {
			want, pinned := sev[rule]
			if !pinned {
				continue
			}
			for _, d := range rep.ByRule(rule) {
				if d.Sev != want {
					t.Errorf("%s: rule %s fired at %v, want %v", file, rule, d.Sev, want)
				}
			}
		}
	}
	// key-unobservable is two-tier: dead key material (no fanout at
	// all) warns, buried key logic errors.
	_, rep, err := File(filepath.Join("testdata", "key_unobservable.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.ByRule(RuleKeyUnobservable); len(d) != 1 || d[0].Sev != Error {
		t.Errorf("buried key logic: got %v, want one error diagnostic", d)
	}
	_, rep, err = File(filepath.Join("testdata", "key_unused.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.ByRule(RuleKeyUnobservable); len(d) != 1 || d[0].Sev != Warning {
		t.Errorf("dead key material: got %v, want one warning diagnostic", d)
	}
	if rep.HasErrors() {
		t.Errorf("dead key material must not be an error:\n%s", rep)
	}
}

// TestCycleDiagnosticPath checks the cycle rule prints the actual loop,
// both from source (parse-level) and on a programmatically built DAG.
func TestCycleDiagnosticPath(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "cycle.bench"))
	if err != nil {
		t.Fatal(err)
	}
	_, rep := source(strings.NewReader(string(src)), "cycle.bench")
	diags := rep.ByRule(RuleCycle)
	if len(diags) == 0 {
		t.Fatal("cycle rule did not fire from source")
	}
	for _, want := range []string{"x", "y", "z"} {
		if !strings.Contains(diags[0].Msg, want) {
			t.Fatalf("cycle diagnostic %q does not name %s", diags[0].Msg, want)
		}
	}

	c := netlist.New("cyc")
	a, _ := c.AddInput("a")
	g1 := c.MustAddGate(netlist.And, "g1", a, a)
	g2 := c.MustAddGate(netlist.Or, "g2", g1, a)
	c.MarkOutput(g2)
	c.Gates[g1].Fanin[1] = g2 // close the loop
	rep = Circuit(c)
	diags = rep.ByRule(RuleCycle)
	if len(diags) != 1 {
		t.Fatalf("cycle rule fired %d times, want 1:\n%s", len(diags), rep)
	}
	if want := "combinational cycle: g2 -> g1 -> g2"; diags[0].Msg != want {
		t.Fatalf("cycle message %q, want the g1/g2 loop %q", diags[0].Msg, want)
	}
	if !rep.HasErrors() {
		t.Fatal("cyclic circuit reported no errors")
	}
}

// TestUndrivenRule covers the rule not expressible in .bench syntax: an
// Input-type node registered as neither primary nor key input.
func TestUndrivenRule(t *testing.T) {
	c := netlist.New("undriven")
	a, _ := c.AddInput("a")
	y := c.MustAddGate(netlist.Not, "y", a)
	c.MarkOutput(y)
	if rep := Circuit(c); rep.HasErrors() {
		t.Fatalf("sound circuit reported errors:\n%s", rep)
	}
	// Orphan input node appended behind the builder's back.
	c.Gates = append(c.Gates, netlist.Gate{Type: netlist.Input})
	rep := Circuit(c)
	if got := rep.ByRule(RuleUndriven); len(got) != 1 {
		t.Fatalf("undriven fired %d times, want 1:\n%s", len(got), rep)
	}
	if !rep.HasErrors() {
		t.Fatal("undriven net did not produce an error")
	}
}

// TestArityRule covers the arity rule: a multi-input gate mutated down
// to a single fanin.
func TestArityRule(t *testing.T) {
	c := netlist.New("arity")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	y := c.MustAddGate(netlist.And, "y", a, b)
	c.MarkOutput(y)
	if rep := Circuit(c); len(rep.ByRule(RuleArity)) != 0 {
		t.Fatalf("sound circuit fired arity:\n%s", rep)
	}
	c.Gates[y].Fanin = c.Gates[y].Fanin[:1]
	rep := Circuit(c)
	if got := rep.ByRule(RuleArity); len(got) != 1 {
		t.Fatalf("arity fired %d times, want 1:\n%s", len(got), rep)
	}
	// Out-of-range fanin is also an arity diagnostic.
	c.Gates[y].Fanin = []int{a, 99}
	rep = Circuit(c)
	if got := rep.ByRule(RuleArity); len(got) != 1 {
		t.Fatalf("out-of-range fanin fired arity %d times, want 1:\n%s", len(got), rep)
	}
}

// TestStructuralSubset confirms structural runs only the soundness
// rules: a dangling gate passes structural but not Circuit.
func TestStructuralSubset(t *testing.T) {
	_, rep, err := File(filepath.Join("testdata", "dangling.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ByRule(RuleDangling)) == 0 {
		t.Fatal("Circuit did not flag the dangling gate")
	}
	src, _ := os.ReadFile(filepath.Join("testdata", "dangling.bench"))
	c, srep := source(strings.NewReader(string(src)), "dangling")
	if srep.HasErrors() {
		t.Fatalf("dangling corpus file has errors:\n%s", srep)
	}
	got := &Report{Circuit: c.Name}
	if structural(c, got) == nil || len(got.Findings) != 0 {
		t.Fatalf("structural refused a sound circuit or fired hygiene rules:\n%s", got)
	}
}

// TestKeyGateShape pins the key-gate-shape rule on a live key: it
// fires only when no XOR/XNOR lies anywhere in the key's fanout cone,
// however deep, and an XOR in a dead cone counts too.
func TestKeyGateShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(c *netlist.Circuit, a, k int) (out int)
		fires bool
	}{
		{"and-to-output", func(c *netlist.Circuit, a, k int) int {
			return c.MustAddGate(netlist.And, "g", a, k)
		}, true},
		{"xor-behind-and", func(c *netlist.Circuit, a, k int) int {
			g := c.MustAddGate(netlist.And, "g", a, k)
			return c.MustAddGate(netlist.Xor, "x", g, a)
		}, false},
		{"xor-in-dead-cone", func(c *netlist.Circuit, a, k int) int {
			x := c.MustAddGate(netlist.Xor, "x", a, k)
			c.MustAddGate(netlist.Not, "nx", x) // drives nothing: x is a dead cone
			return c.MustAddGate(netlist.And, "g", a, k)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := netlist.New(tc.name)
			a, _ := c.AddInput("a")
			k, err := c.AddKeyInput("keyinput0")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.MarkOutput(tc.build(c, a, k)); err != nil {
				t.Fatal(err)
			}
			rep := Circuit(c)
			if rep.HasErrors() || len(rep.ByRule(RuleKeyUnobservable)) != 0 {
				t.Fatalf("the key must be live:\n%s", rep)
			}
			if fired := len(rep.ByRule(RuleKeyGateShape)) != 0; fired != tc.fires {
				t.Fatalf("key-gate-shape fired = %v, want %v:\n%s", fired, tc.fires, rep)
			}
		})
	}
}

// TestConstPropagation exercises the folding lattice beyond the corpus:
// absorbing inputs through inverting gates and constant chains.
func TestConstPropagation(t *testing.T) {
	c := netlist.New("const")
	a, _ := c.AddInput("a")
	one, _ := c.AddConst(true, "one")
	nand := c.MustAddGate(netlist.Nand, "n", a, a) // unknown: no folding
	nor := c.MustAddGate(netlist.Nor, "z", one, a) // 1 absorbs: NOR -> 0
	buf := c.MustAddGate(netlist.Buf, "bz", nor)   // chains the constant
	xn := c.MustAddGate(netlist.Xnor, "x", a, a)   // degenerate: always 1
	y := c.MustAddGate(netlist.Or, "y", nand, buf, xn)
	c.MarkOutput(y)
	rep := Circuit(c)
	got := map[string]bool{}
	for _, d := range rep.ByRule(RuleConstOut) {
		got[d.Name] = true
	}
	for _, want := range []string{"z", "bz", "x", "y"} {
		if !got[want] {
			t.Errorf("const-out did not flag %s; report:\n%s", want, rep)
		}
	}
	if got["n"] {
		t.Errorf("const-out wrongly flagged the non-constant NAND:\n%s", rep)
	}
}

// TestReportHelpers covers Err, Counts and String plumbing.
func TestReportHelpers(t *testing.T) {
	_, rep, err := File(filepath.Join("testdata", "key_unobservable.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("Err() returned nil for a report with errors")
	}
	if errs, warns, _ := rep.Counts(); errs+warns < 2 { // key-unobservable + dangling kg
		t.Fatalf("Counts() found %d errors and %d warnings, want >= 2 together:\n%s", errs, warns, rep)
	}
	s := rep.String()
	if !strings.Contains(s, "key-unobservable") || !strings.Contains(s, "error") {
		t.Fatalf("report string %q lacks rule/severity markers", s)
	}
	clean := &Report{Circuit: "c"}
	if clean.Err() != nil || clean.HasErrors() {
		t.Fatal("empty report claims errors")
	}
}

// TestDiagnosticLines confirms diagnostics carry .bench source lines.
func TestDiagnosticLines(t *testing.T) {
	_, rep, err := File(filepath.Join("testdata", "dangling.bench"))
	if err != nil {
		t.Fatal(err)
	}
	d := rep.ByRule(RuleDangling)
	if len(d) != 1 {
		t.Fatalf("want one dangling diagnostic, got:\n%s", rep)
	}
	if d[0].Line != 6 { // "dead = OR(a, b)" is line 6 of dangling.bench
		t.Errorf("dangling diagnostic line = %d, want 6", d[0].Line)
	}
	if d[0].Name != "dead" {
		t.Errorf("dangling diagnostic name = %q, want dead", d[0].Name)
	}
}

func TestSeverityString(t *testing.T) {
	for sev, want := range map[Severity]string{Info: "info", Warning: "warning", Error: "error"} {
		if sev.String() != want {
			t.Errorf("Severity(%d).String() = %q, want %q", sev, sev.String(), want)
		}
	}
}
