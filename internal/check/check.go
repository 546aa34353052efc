// Package check is the structural netlist analyzer: a catalog of lint
// rules over gate-level circuits producing typed diagnostics with rule
// IDs, severities, node names and .bench source lines.
//
// The rules split into three groups:
//
//   - Structural soundness (error severity): combinational cycles with
//     the offending path printed, undriven nets, gate arity violations.
//     These are the defects ir.Compile refuses a circuit for; check
//     compiles the circuit and renders each defect as a diagnostic.
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
// parser's structured errors into the same diagnostic format.
package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// Severity ranks a diagnostic.
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
	// RuleCycle: combinational cycle; the diagnostic carries the cycle
	// path in driver order. Error.
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

// Diagnostic is one finding: the rule that fired, its severity, the
// offending node (ID, name and .bench source line when known) and a
// human-readable message. Cycle carries the node names along a
// combinational cycle in driver order, for RuleCycle only.
type Diagnostic struct {
	Rule  string
	Sev   Severity
	Node  int // node ID, -1 when not tied to a node
	Name  string
	Line  int // 1-based .bench line, 0 when unknown
	Msg   string
	Cycle []string
}

// String renders the diagnostic as "line 12: error[cycle]: message".
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&b, "line %d: ", d.Line)
	}
	fmt.Fprintf(&b, "%s[%s]: %s", d.Sev, d.Rule, d.Msg)
	return b.String()
}

// Report is the outcome of checking one circuit.
type Report struct {
	// Circuit is the checked circuit's name.
	Circuit string
	// Diags holds every diagnostic, grouped by rule in catalog order
	// and by node ID within a rule.
	Diags []Diagnostic
}

func (r *Report) add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// ruleRank is the catalog order of the rule IDs, the primary sort key
// of a report's diagnostics.
var ruleRank = map[string]int{
	RuleCycle: 0, RuleUndriven: 1, RuleArity: 2,
	RuleDangling: 3, RuleDeadCone: 4, RuleUnusedInput: 5, RuleConstOut: 6,
	RuleKeyUnobservable: 7, RuleKeyNaming: 8, RuleKeyGateShape: 9,
	RuleSyntax: 10, RuleUnknownOp: 11, RuleDupDef: 12,
	RuleMultiDriven: 13, RuleUndefined: 14, RuleIO: 15,
}

// sort orders Diags canonically — rule catalog order, then node ID,
// then source line — so a report renders identically no matter which
// order the rules emitted findings. Every constructor (Circuit, File)
// sorts before returning; without this, incidental emission order would
// leak into the CLI text and -json output.
func (r *Report) sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if ra, rb := ruleRank[a.Rule], ruleRank[b.Rule]; ra != rb {
			return ra < rb
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Line < b.Line
	})
}

// HasErrors reports whether any diagnostic has error severity.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diags {
		if d.Sev == Error {
			return true
		}
	}
	return false
}

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []Diagnostic { return r.atLeast(Error) }

// atLeast returns the diagnostics with severity >= min.
func (r *Report) atLeast(min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Sev >= min {
			out = append(out, d)
		}
	}
	return out
}

// ByRule returns the diagnostics produced by the given rule.
func (r *Report) ByRule(rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

// String renders the report one diagnostic per line, prefixed with the
// circuit name.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		fmt.Fprintf(&b, "%s: %s\n", r.Circuit, d)
	}
	return b.String()
}

// Err converts the report's error-severity diagnostics into a single
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

// diag builds a node-anchored diagnostic, resolving name and line.
func diag(c *netlist.Circuit, rule string, sev Severity, id int, format string, args ...interface{}) Diagnostic {
	d := Diagnostic{
		Rule: rule,
		Sev:  sev,
		Node: id,
		Msg:  fmt.Sprintf(format, args...),
	}
	if id >= 0 && id < c.NumNodes() {
		d.Name = c.NameOf(id)
		d.Line = c.SrcLine(id)
	}
	return d
}

// defectRule maps ir.Compile's defect kinds onto the structural rules.
var defectRule = [...]string{
	ir.DefectArity:    RuleArity,
	ir.DefectUndriven: RuleUndriven,
	ir.DefectCycle:    RuleCycle,
}

// structural compiles c and appends one arity, undriven or cycle
// diagnostic per compile defect to rep. It returns the program, or nil
// when c is not sound enough for the graph-walking rules.
func structural(c *netlist.Circuit, rep *Report) *ir.Program {
	prog, err := ir.Compile(c)
	var de *ir.DefectError
	if !errors.As(err, &de) {
		return prog
	}
	for _, d := range de.Defects {
		dg := diag(c, defectRule[d.Kind], Error, d.Node, "%v", d.Err)
		for _, id := range d.Cycle {
			dg.Cycle = append(dg.Cycle, c.NameOf(id))
		}
		rep.add(dg)
	}
	return nil
}

// Circuit runs the full rule catalog and returns the report. The
// hygiene and key rules only run when the structural rules pass, since
// they need a sound DAG to walk; they run over the compiled IR through
// the shared dataflow engine (reachability and constant propagation are
// engine domains, not ad-hoc traversals).
func Circuit(c *netlist.Circuit) *Report {
	rep := &Report{Circuit: c.Name}
	prog := structural(c, rep)
	if prog == nil {
		rep.sort()
		return rep
	}

	isPO := poSet(prog)
	reach := dataflow.Run[bool](prog, &poReach{p: prog, isPO: isPO})

	// Dangling gates, dead cones and unused inputs.
	for id := range c.Gates {
		t := c.Gates[id].Type
		drives := len(prog.FanoutSpan(id)) > 0
		if t == netlist.Input {
			if !drives && !isPO[id] && !c.IsKeyInput(id) {
				rep.add(diag(c, RuleUnusedInput, Info, id, "primary input %q drives nothing", c.NameOf(id)))
			}
			continue
		}
		if reach[id] {
			continue
		}
		if !drives && !isPO[id] {
			rep.add(diag(c, RuleDangling, Warning, id,
				"%v gate %q drives nothing and is not an output", t, c.NameOf(id)))
		} else if drives {
			rep.add(diag(c, RuleDeadCone, Warning, id,
				"%v gate %q cannot reach any primary output (dead cone)", t, c.NameOf(id)))
		}
	}

	constOutputs(c, prog, rep)
	keyRules(c, prog, rep, reach)
	rep.sort()
	return rep
}

// poSet marks the primary-output nodes of a program.
func poSet(p *ir.Program) []bool {
	out := make([]bool, p.NumNodes())
	for _, o := range p.POs {
		out[o] = true
	}
	return out
}

// poReach is the output-reachability analysis as a backward engine
// domain: a node is live iff it is a primary output or drives one
// transitively. The dead-cone and key-unobservable rules read its
// fixpoint: the program's TransitiveFanin of the outputs, computed in
// one sweep.
type poReach struct {
	p    *ir.Program
	isPO []bool
}

func (d *poReach) Direction() dataflow.Direction { return dataflow.Backward }
func (d *poReach) Join(a, b bool) bool           { return a || b }
func (d *poReach) Equal(a, b bool) bool          { return a == b }

func (d *poReach) Transfer(id int, vals []bool) bool {
	if d.isPO[id] {
		return true
	}
	for _, fo := range d.p.FanoutSpan(id) {
		if vals[fo] {
			return true
		}
	}
	return false
}

// constOutputs reports gates whose output the engine's ternary
// constant domain proves stuck: constants seed known values, AND/OR
// families fold through absorbing inputs, and two-input XOR/XNOR of the
// same signal folds regardless of the signal's value.
func constOutputs(c *netlist.Circuit, prog *ir.Program, rep *Report) {
	val := dataflow.Run[int8](prog, dataflow.NewConst(prog))
	for _, id32 := range prog.Order {
		id := int(id32)
		switch prog.Ops[id] {
		case ir.OpInput, ir.OpConst0, ir.OpConst1:
			continue
		}
		if v := val[id]; v != dataflow.Unknown {
			rep.add(diag(c, RuleConstOut, Warning, id,
				"output of %v gate %q is provably constant %d", prog.Ops[id], c.NameOf(id), v))
		}
	}
}

// keyRules checks the locked-circuit conventions: key observability,
// key-input naming and key-gate shape. No-ops on unlocked circuits.
func keyRules(c *netlist.Circuit, prog *ir.Program, rep *Report, reach []bool) {
	if c.NumKeys() == 0 {
		return
	}
	for i, id := range c.Keys {
		switch {
		case len(prog.FanoutSpan(id)) == 0:
			// A key input driving no gate at all is a scheme artifact —
			// weighted locking with KeyBits not divisible by the control
			// width leaves the remainder bits unused — so it warns
			// rather than fails: the circuit still evaluates correctly,
			// the bit is just dead key material.
			rep.add(diag(c, RuleKeyUnobservable, Warning, id,
				"key input %q (bit %d) drives no gate; the key bit is dead key material", c.NameOf(id), i))
		case !reach[id]:
			rep.add(diag(c, RuleKeyUnobservable, Error, id,
				"key input %q (bit %d) has no structural path to any primary output; its key gate is a no-op", c.NameOf(id), i))
		}
		name := c.NameOf(id)
		want := fmt.Sprintf("keyinput%d", i)
		if !strings.EqualFold(name, want) {
			rep.add(diag(c, RuleKeyNaming, Warning, id,
				"key bit %d is named %q; the locked-circuit convention is %q (declaration order)", i, name, want))
		}
		if reach[id] && !reachesXorGate(prog, id) {
			rep.add(diag(c, RuleKeyGateShape, Info, id,
				"key input %q never feeds an XOR/XNOR gate; unconventional key-gate shape", c.NameOf(id)))
		}
	}
}

// reachesXorGate reports whether any XOR/XNOR gate lies in the
// transitive fanout cone of root.
func reachesXorGate(p *ir.Program, root int) bool {
	seen := make([]bool, p.NumNodes())
	stack := []int32{int32(root)}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if op := p.Ops[id]; op == ir.OpXor || op == ir.OpXnor {
			return true
		}
		stack = append(stack, p.FanoutSpan(int(id))...)
	}
	return false
}
