// Firing, clean and cross-check cases for the engine-backed rules:
// key-leak, testability-bound, the canonical report order and the
// Explain witness paths.
package audit_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"orap/internal/audit"
	"orap/internal/check"
	"orap/internal/circuits"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// Random-XOR locking of an all-XOR circuit keeps every key gate on a
// pure parity path to the output: the key bits stay linearly separable
// and key-leak must flag each of them at the output.
func TestKeyLeakFiresOnRandomXorParity(t *testing.T) {
	l, err := lock.RandomXOR(circuits.Parity(8), 3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustAudit(t, l.Circuit)
	leaks := rep.ByRule(audit.RuleKeyLeak)
	if len(leaks) != 3 {
		t.Fatalf("want one key-leak per key bit (3), got %d:\n%s", len(leaks), rep)
	}
	bits := map[int]bool{}
	for _, f := range leaks {
		if f.Sev != check.Warning {
			t.Fatalf("key-leak severity = %v, want warning", f.Sev)
		}
		bits[f.KeyBit] = true
	}
	if len(bits) != 3 {
		t.Fatalf("key-leak fired on bits %v, want all three", bits)
	}
}

// Weighted locking mixes key bits through AND/NAND control cones before
// the XOR splice: no output flips with a single bit under every input
// pattern, so key-leak must stay silent — on the plain scheme and on
// the OraP pairing alike (OraP protects the oracle path and leaves the
// netlist untouched, which this pins).
func TestKeyLeakCleanOnWeighted(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    func(t *testing.T) *netlist.Circuit
	}{
		{"weighted", func(t *testing.T) *netlist.Circuit {
			l, err := lock.Weighted(circuits.C17(), lock.WeightedOptions{
				KeyBits: 6, ControlWidth: 3, Rand: rng.New(12),
			})
			if err != nil {
				t.Fatal(err)
			}
			return l.Circuit
		}},
		{"weighted-rippleadder", func(t *testing.T) *netlist.Circuit {
			l, err := lock.Weighted(circuits.RippleAdder(4), lock.WeightedOptions{
				KeyBits: 6, ControlWidth: 3, Rand: rng.New(12),
			})
			if err != nil {
				t.Fatal(err)
			}
			return l.Circuit
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustAudit(t, tc.c(t))
			if leaks := rep.ByRule(audit.RuleKeyLeak); len(leaks) != 0 {
				t.Fatalf("weighted locking must not key-leak, got:\n%s", rep)
			}
		})
	}
}

// A bare XOR key gate between a primary input and the output is the
// minimal leak; routing the same key bit through an AND gate destroys
// the proof. Both directions on one hand-built circuit.
func TestKeyLeakMinimalShapes(t *testing.T) {
	c := netlist.New("leak-shapes")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	k := addKey(t, c, "keyinput0")
	leak := c.MustAddGate(netlist.Xor, "leak", a, k)
	masked := c.MustAddGate(netlist.And, "masked", b, k)
	markOut(t, c, leak, masked)
	rep := mustAudit(t, c)
	leaks := rep.ByRule(audit.RuleKeyLeak)
	if len(leaks) != 1 {
		t.Fatalf("want exactly one key-leak, got %d:\n%s", len(leaks), rep)
	}
	if leaks[0].Name != "leak" {
		t.Fatalf("key-leak anchored at %q, want the XOR output", leaks[0].Name)
	}
}

// wideAnd chains a balanced AND reduction over the given inputs.
func wideAnd(c *netlist.Circuit, name string, in []int) int {
	for layer := 0; len(in) > 1; layer++ {
		var next []int
		for i := 0; i < len(in); i += 2 {
			if i+1 == len(in) {
				next = append(next, in[i])
				continue
			}
			next = append(next, c.MustAddGate(netlist.And, c.NameOf(in[i])+"_l", in[i], in[i+1]))
		}
		in = next
	}
	return in[0]
}

// buildTestabilityFixture is a circuit with one provably hard site (a
// width-input AND point function — its output goes 1 on a single
// pattern) next to easy shallow logic, the shape the testability-bound
// rule exists to flag.
func buildTestabilityFixture(t *testing.T, width int) *netlist.Circuit {
	c := netlist.New("hard-sites")
	var ins []int
	for i := 0; i < width; i++ {
		ins = append(ins, addIn(t, c, fmt.Sprintf("x%d", i)))
	}
	k := addKey(t, c, "keyinput0")
	hard := wideAnd(c, "hard", ins)
	flip := c.MustAddGate(netlist.Xor, "flip", hard, k)
	easy := c.MustAddGate(netlist.Or, "easy", ins[0], ins[1])
	markOut(t, c, flip, easy)
	return c
}

// A 32-input point function's root needs all 32 inputs at 1, and every
// gate of its AND tree needs them to be observed (SCOAP detect
// difficulty about 65), so testability-bound must flag the AND layers
// as info findings and leave the shallow OR alone. The 16-input fixture
// (about 33) stays under the threshold.
func TestTestabilityBoundFires(t *testing.T) {
	rep := mustAudit(t, buildTestabilityFixture(t, 32))
	tb := rep.ByRule(audit.RuleTestabilityBound)
	if len(tb) == 0 {
		t.Fatalf("testability-bound must fire on the 32-input point function:\n%s", rep)
	}
	for _, f := range tb {
		if f.Sev != check.Info {
			t.Fatalf("testability-bound severity = %v, want info", f.Sev)
		}
		if f.Name == "easy" {
			t.Fatalf("testability-bound flagged the shallow OR gate:\n%s", rep)
		}
	}
	quiet := mustAudit(t, buildTestabilityFixture(t, 16))
	if tb := quiet.ByRule(audit.RuleTestabilityBound); len(tb) != 0 {
		t.Fatalf("testability-bound must not fire on a 16-input cone:\n%s", quiet)
	}
}

// The SCOAP bound must agree with dynamic fault simulation: stuck-at
// faults at the flagged gates survive a random campaign that covers
// everything the rule left unflagged.
func TestTestabilityBoundMatchesFaultsim(t *testing.T) {
	c := buildTestabilityFixture(t, 32)
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	rep := audit.AnalyzeProgram(prog, c, audit.Options{})
	flagged := map[int]bool{}
	for _, f := range rep.ByRule(audit.RuleTestabilityBound) {
		flagged[f.Node] = true
	}
	if len(flagged) == 0 {
		t.Fatal("fixture produced no testability-bound findings")
	}

	s, err := faultsim.ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunRandom(faultsim.CollapseFaults(c), 8, rng.New(2020))
	undetected := map[int]bool{}
	for _, f := range res.Remaining {
		if f.Pin < 0 {
			undetected[f.Node] = true
		}
	}
	// Every flagged gate keeps an undetected output fault: 512 random
	// patterns essentially never produce the single all-ones excitation
	// the AND cone needs.
	for node := range flagged {
		if !undetected[node] {
			t.Errorf("gate %q flagged hard but random patterns covered it", c.NameOf(node))
		}
	}
	// And the easy shallow logic is fully covered, so the rule's silence
	// there matches the simulator too.
	for _, f := range res.Remaining {
		if c.NameOf(f.Node) == "easy" {
			t.Errorf("fault %v at the shallow OR gate survived the campaign", f)
		}
	}
}

// Reports must come out in the canonical order (rule catalog order,
// then node, then key bit) and be identical across runs.
func TestReportCanonicalOrder(t *testing.T) {
	l, err := lock.RandomXOR(circuits.C17(), 4, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rep1 := mustAudit(t, l.Circuit)
	rep2 := mustAudit(t, l.Circuit)
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("two audits of the same circuit differ:\n%s\nvs\n%s", rep1, rep2)
	}
	rank := map[string]int{
		audit.RuleKeyRemovable:      0,
		audit.RuleKeyFingerprint:    1,
		audit.RuleLowCorruptibility: 2,
		audit.RuleKeyLeak:           3,
		audit.RuleTestabilityBound:  4,
	}
	ordered := sort.SliceIsSorted(rep1.Findings, func(i, j int) bool {
		a, b := rep1.Findings[i], rep1.Findings[j]
		if rank[a.Rule] != rank[b.Rule] {
			return rank[a.Rule] < rank[b.Rule]
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.KeyBit < b.KeyBit
	})
	if !ordered {
		t.Fatalf("findings not in canonical order:\n%s", rep1)
	}
}

// Explain must walk a key-leak finding back to its key input, ending at
// the finding's anchor with the Anti proof intact on the final step.
func TestExplainKeyLeakPath(t *testing.T) {
	l, err := lock.RandomXOR(circuits.Parity(8), 3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{})
	leaks := rep.ByRule(audit.RuleKeyLeak)
	if len(leaks) == 0 {
		t.Fatal("no key-leak findings to explain")
	}
	for _, f := range leaks {
		steps := audit.Explain(prog, l.Circuit, f)
		if len(steps) < 2 {
			t.Fatalf("bit %d: witness path too short: %+v", f.KeyBit, steps)
		}
		first, last := steps[0], steps[len(steps)-1]
		if first.Node != int(prog.Keys[f.KeyBit]) {
			t.Fatalf("bit %d: path starts at %q, want the key input", f.KeyBit, first.Name)
		}
		if last.Node != f.Node {
			t.Fatalf("bit %d: path ends at %q, want the finding's anchor %q", f.KeyBit, last.Name, f.Name)
		}
		for i, s := range steps {
			if !s.Anti {
				t.Fatalf("bit %d step %d (%q): key-leak path must keep the Anti proof", f.KeyBit, i, s.Name)
			}
			if s.TaintBits < 1 {
				t.Fatalf("bit %d step %d (%q): path step carries no taint", f.KeyBit, i, s.Name)
			}
		}
	}
}

// Explain on a finding whose anchor the key bit cannot reach returns
// nil rather than inventing a path.
func TestExplainUnreachableReturnsNil(t *testing.T) {
	c := netlist.New("unreach")
	a := addIn(t, c, "a")
	k := addKey(t, c, "keyinput0")
	g := c.MustAddGate(netlist.Xor, "g", a, k)
	lone := c.MustAddGate(netlist.Not, "lone", a)
	markOut(t, c, g, lone)
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	fake := check.Finding{Rule: audit.RuleKeyLeak, KeyBit: 0, Node: lone}
	if steps := audit.Explain(prog, c, fake); steps != nil {
		t.Fatalf("Explain fabricated a path to an unreachable anchor: %+v", steps)
	}
	if steps := audit.Explain(prog, c, check.Finding{KeyBit: -1, Node: g}); steps != nil {
		t.Fatalf("Explain must return nil without a key bit, got %+v", steps)
	}
}
