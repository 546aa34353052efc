// Package check is the structural netlist analyzer: a catalog of lint
// rules over gate-level circuits producing typed findings with rule
// IDs, severities, node names and .bench source lines.
//
// The rules split into three groups:
//
//   - Structural soundness (error severity): combinational cycles with
//     the offending path printed, undriven nets, gate arity violations.
//     These are the defects ir.Compile refuses a circuit for; check
//     compiles the circuit and renders each defect as a finding.
//   - Hygiene (warning/info severity): dangling gates, dead cones
//     unreachable from any primary output, provably-constant gate
//     outputs (constant propagation), unused primary inputs. Legal but
//     almost always a netlist bug, and they skew the paper's area and
//     coverage metrics (Tables I & II).
//   - Locked-circuit conventions: every key input must structurally
//     reach at least one primary output (a locked circuit failing this
//     has a no-op key bit — error severity), key inputs should follow
//     the keyinput<N> naming convention, and key bits conventionally
//     feed XOR/XNOR key gates.
//
// Source-level defects that prevent a circuit from being built at all
// (duplicate definitions, multiply-driven nets, undefined signals,
// parse-level cycles) are surfaced by File, which maps the bench
// parser's structured errors into the same finding format.
//
// check also owns the findings core that internal/audit reports
// through: one Finding type, one Report with its helpers, and one
// canonical sort keyed by each analyzer's rule catalog, an ordered
// slice of rule IDs.
package check

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// Severity ranks a finding.
type Severity uint8

// Severities, in increasing order.
const (
	Info Severity = iota
	Warning
	Error
)

// String returns "info", "warning" or "error".
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// Rule IDs. Circuit-level rules are produced by Circuit; source-level
// rules by File (mapped from bench.ParseError).
const (
	// RuleCycle: combinational cycle; the message prints the cycle path
	// in driver order. Error.
	RuleCycle = "cycle"
	// RuleUndriven: a net with no driver — an Input-type node that is
	// registered as neither a primary nor a key input. Error.
	RuleUndriven = "undriven"
	// RuleArity: gate arity or reference violations (Buf/Not fanin != 1,
	// multi-input gates with < 2 fanins, out-of-range references,
	// unknown gate types). Error.
	RuleArity = "arity"
	// RuleDangling: a non-output gate driving nothing. Warning.
	RuleDangling = "dangling"
	// RuleDeadCone: a gate with fanout that still cannot reach any
	// primary output — it feeds only dead logic. Warning.
	RuleDeadCone = "dead-cone"
	// RuleUnusedInput: a primary input driving nothing. Info.
	RuleUnusedInput = "unused-input"
	// RuleConstOut: a gate output provably stuck at a constant under
	// constant propagation from Const0/Const1 drivers and degenerate
	// XOR/XNOR shapes. Warning.
	RuleConstOut = "const-out"
	// RuleKeyUnobservable: a key input with no structural path to any
	// primary output; its key gate cannot affect the function. Error.
	RuleKeyUnobservable = "key-unobservable"
	// RuleKeyNaming: a key input that does not follow the keyinput<N>
	// declaration-order naming convention. Warning.
	RuleKeyNaming = "key-naming"
	// RuleKeyGateShape: a key input whose fanout cone contains no
	// XOR/XNOR gate — an unconventional key-gate shape. Info.
	RuleKeyGateShape = "key-gate-shape"

	// RuleSyntax: unparseable .bench text. Error.
	RuleSyntax = "syntax"
	// RuleUnknownOp: unknown gate operator in an assignment. Error.
	RuleUnknownOp = "unknown-op"
	// RuleDupDef: a signal assigned by two gate definitions. Error.
	RuleDupDef = "dup-def"
	// RuleMultiDriven: a net driven more than once across declaration
	// kinds (INPUT redeclared, or INPUT also assigned). Error.
	RuleMultiDriven = "multi-driven"
	// RuleUndefined: a referenced signal that is never defined. Error.
	RuleUndefined = "undefined"
	// RuleIO: the source could not be read. Error.
	RuleIO = "io"
)

// catalog lists the rule IDs in catalog order, the primary sort key of
// a report's findings.
var catalog = []string{
	RuleCycle, RuleUndriven, RuleArity,
	RuleDangling, RuleDeadCone, RuleUnusedInput, RuleConstOut,
	RuleKeyUnobservable, RuleKeyNaming, RuleKeyGateShape,
	RuleSyntax, RuleUnknownOp, RuleDupDef, RuleMultiDriven, RuleUndefined, RuleIO,
}

// Finding is one result of check or of internal/audit: the rule that
// fired, its severity, the key bit and node it is anchored to, a
// human-readable message and the attack-literature reference, if any.
type Finding struct {
	Rule string
	Sev  Severity
	// KeyBit is the key-bit index the finding concerns, -1 when it is
	// not tied to a key bit (every check finding).
	KeyBit int
	// Node is the offending node ID, -1 when not tied to a node.
	Node int
	// Name and Line locate Node in the source netlist when known; Line
	// is 1-based, 0 when unknown.
	Name string
	Line int
	Msg  string
	// Ref cites the attack paper or scheme section that exploits the
	// flagged weakness; check's rules leave it empty.
	Ref string
}

// String renders the finding as "line 12: error[cycle]: message",
// followed by " (ref: …)" when Ref is set.
func (f Finding) String() string {
	var b strings.Builder
	if f.Line > 0 {
		fmt.Fprintf(&b, "line %d: ", f.Line)
	}
	fmt.Fprintf(&b, "%s[%s]: %s", f.Sev, f.Rule, f.Msg)
	if f.Ref != "" {
		fmt.Fprintf(&b, " (ref: %s)", f.Ref)
	}
	return b.String()
}

// Report is the outcome of checking or auditing one circuit.
type Report struct {
	// Circuit is the analyzed circuit's name.
	Circuit string
	// Findings holds every finding in canonical order (see Sort).
	Findings []Finding
}

// Add appends a finding anchored to key bit keyBit and node id of c,
// resolving the node's name and source line; c may be nil when id is
// -1. ref is the finding's literature reference, empty for check's
// rules.
func (r *Report) Add(c *netlist.Circuit, rule string, sev Severity, keyBit, id int, ref, format string, args ...any) {
	f := Finding{Rule: rule, Sev: sev, KeyBit: keyBit, Node: id, Msg: fmt.Sprintf(format, args...), Ref: ref}
	if id >= 0 && id < c.NumNodes() {
		f.Name = c.NameOf(id)
		f.Line = c.SrcLine(id)
	}
	r.Findings = append(r.Findings, f)
}

// Sort puts the findings in canonical order: rule in the order of
// rules (the analyzer's catalog), then node ID, then key bit, then
// source line. The stable sort keeps the emission order of findings
// that tie on all four, so a report renders identically no matter
// which order the rules emitted them in; without it, incidental
// emission order would leak into the CLI text and -json output.
func (r *Report) Sort(rules []string) {
	slices.SortStableFunc(r.Findings, func(a, b Finding) int {
		if a.Rule != b.Rule {
			if c := cmp.Compare(slices.Index(rules, a.Rule), slices.Index(rules, b.Rule)); c != 0 {
				return c
			}
		}
		if a.Node != b.Node {
			return cmp.Compare(a.Node, b.Node)
		}
		if a.KeyBit != b.KeyBit {
			return cmp.Compare(a.KeyBit, b.KeyBit)
		}
		return cmp.Compare(a.Line, b.Line)
	})
}

// HasErrors reports whether any finding has error severity.
func (r *Report) HasErrors() bool {
	return slices.ContainsFunc(r.Findings, func(f Finding) bool { return f.Sev == Error })
}

// Errors returns the error-severity findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sev == Error {
			out = append(out, f)
		}
	}
	return out
}

// ByRule returns the findings produced by the given rule.
func (r *Report) ByRule(rule string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// Counts returns the number of error-, warning- and info-severity
// findings.
func (r *Report) Counts() (errors, warnings, infos int) {
	for _, f := range r.Findings {
		switch f.Sev {
		case Error:
			errors++
		case Warning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// String renders the report one finding per line, prefixed with the
// circuit name.
func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s: %s\n", r.Circuit, f)
	}
	return b.String()
}

// Err converts the report's error-severity findings into a single
// error, or nil when there are none. Multiple errors are summarized
// with the first message and a count.
func (r *Report) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	first := errs[0]
	if len(errs) == 1 {
		return fmt.Errorf("check: circuit %q: %s", r.Circuit, first)
	}
	return fmt.Errorf("check: circuit %q: %s (and %d more errors)", r.Circuit, first, len(errs)-1)
}

// defectRule maps ir.Compile's defect kinds onto the structural rules.
var defectRule = [...]string{
	ir.DefectArity:    RuleArity,
	ir.DefectUndriven: RuleUndriven,
	ir.DefectCycle:    RuleCycle,
}

// structural compiles c and appends one arity, undriven or cycle
// finding per compile defect to rep. It returns the program, or nil
// when c is not sound enough for the graph-walking rules.
func structural(c *netlist.Circuit, rep *Report) *ir.Program {
	prog, err := ir.Compile(c)
	var de *ir.DefectError
	if !errors.As(err, &de) {
		return prog
	}
	for _, d := range de.Defects {
		rep.Add(c, defectRule[d.Kind], Error, -1, d.Node, "", "%v", d.Err)
	}
	return nil
}

// Circuit runs the full rule catalog and returns the report. The
// hygiene and key rules only run when the structural rules pass, since
// they need a sound DAG to walk; they read reachability from the
// compiled IR and constants from dataflow.Pair.
func Circuit(c *netlist.Circuit) *Report {
	rep := &Report{Circuit: c.Name}
	prog := structural(c, rep)
	if prog == nil {
		rep.Sort(catalog)
		return rep
	}

	// Unused inputs, dangling gates and dead cones: the nodes outside
	// the outputs' transitive fanin. An output is in its own fanin, so a
	// node outside it that drives nothing is not an output.
	live := prog.TransitiveFanin(c.POs...)
	for id := range c.Gates {
		if live[id] {
			continue
		}
		t := c.Gates[id].Type
		drives := len(prog.FanoutSpan(id)) > 0
		switch {
		case t == netlist.Input:
			if !drives && !c.IsKeyInput(id) {
				rep.Add(c, RuleUnusedInput, Info, -1, id, "", "primary input %q drives nothing", c.NameOf(id))
			}
		case !drives:
			rep.Add(c, RuleDangling, Warning, -1, id, "",
				"%v gate %q drives nothing and is not an output", t, c.NameOf(id))
		default:
			rep.Add(c, RuleDeadCone, Warning, -1, id, "",
				"%v gate %q cannot reach any primary output (dead cone)", t, c.NameOf(id))
		}
	}

	constOutputs(c, prog, rep)
	keyRules(c, prog, rep, live)
	rep.Sort(catalog)
	return rep
}

// constOutputs reports gates whose output ternary constant propagation
// proves stuck: constants seed known values, AND/OR families fold
// through absorbing inputs, and two-input XOR/XNOR of the same signal
// folds regardless of the signal's value. The pair domain tracking no
// key computes exactly that lattice, in every lane's V0.
func constOutputs(c *netlist.Circuit, prog *ir.Program, rep *Report) {
	vals := dataflow.Pair(prog, nil)
	for id := range vals {
		switch prog.Ops[id] {
		case ir.OpInput, ir.OpConst0, ir.OpConst1:
			continue
		}
		if v := vals[id].Lane(0).V0; v != dataflow.Unknown {
			rep.Add(c, RuleConstOut, Warning, -1, id, "",
				"output of %v gate %q is provably constant %d", prog.Ops[id], c.NameOf(id), v)
		}
	}
}

// keyRules checks the locked-circuit conventions: key observability,
// key-input naming and key-gate shape. live marks the outputs'
// transitive fanin. No-ops on unlocked circuits.
func keyRules(c *netlist.Circuit, prog *ir.Program, rep *Report, live []bool) {
	if c.NumKeys() == 0 {
		return
	}
	var xors []int
	for id, op := range prog.Ops {
		if op == ir.OpXor || op == ir.OpXnor {
			xors = append(xors, id)
		}
	}
	feedsXor := prog.TransitiveFanin(xors...)
	for i, id := range c.Keys {
		switch {
		case len(prog.FanoutSpan(id)) == 0:
			// A key input driving no gate at all is a scheme artifact —
			// weighted locking with KeyBits not divisible by the control
			// width leaves the remainder bits unused — so it warns
			// rather than fails: the circuit still evaluates correctly,
			// the bit is just dead key material.
			rep.Add(c, RuleKeyUnobservable, Warning, -1, id, "",
				"key input %q (bit %d) drives no gate; the key bit is dead key material", c.NameOf(id), i)
		case !live[id]:
			rep.Add(c, RuleKeyUnobservable, Error, -1, id, "",
				"key input %q (bit %d) has no structural path to any primary output; its key gate is a no-op", c.NameOf(id), i)
		}
		name := c.NameOf(id)
		want := fmt.Sprintf("keyinput%d", i)
		if !strings.EqualFold(name, want) {
			rep.Add(c, RuleKeyNaming, Warning, -1, id, "",
				"key bit %d is named %q; the locked-circuit convention is %q (declaration order)", i, name, want)
		}
		// An XOR/XNOR anywhere in the key's fanout cone counts, also
		// one in a dead cone.
		if live[id] && !feedsXor[id] {
			rep.Add(c, RuleKeyGateShape, Info, -1, id, "",
				"key input %q never feeds an XOR/XNOR gate; unconventional key-gate shape", c.NameOf(id))
		}
	}
}
