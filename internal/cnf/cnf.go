// Package cnf translates gate-level circuits into CNF via the Tseitin
// transformation and builds the miter circuits used by oracle-guided
// attacks.
//
// The SAT attack encodes two copies of the locked netlist that share their
// primary inputs but carry independent key variables, plus a disequality
// (miter) constraint over the outputs; each oracle query then adds two
// more copies with the inputs fixed to the distinguishing pattern and the
// outputs fixed to the oracle's response. All of those encodings are
// provided here so the attack packages stay free of clause-level detail.
//
// Encoding runs over the compiled circuit IR (internal/ir): a Miter
// compiles its circuit once and every per-query copy re-walks the same
// flat program, so clause emission order — and hence variable numbering —
// is reproducible and independent of the netlist's mutable state.
package cnf

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/sat"
)

// Instance is one CNF copy of a circuit inside a solver: the variable
// assigned to every netlist node.
type Instance struct {
	// NodeVar maps node ID to its SAT variable.
	NodeVar []sat.Var
	// PIVars, KeyVars and POVars are the variables of the circuit's
	// primary inputs, key inputs and primary outputs, in declaration
	// order (they alias entries of NodeVar).
	PIVars  []sat.Var
	KeyVars []sat.Var
	POVars  []sat.Var
}

// Options controls variable sharing between encoded copies.
type Options struct {
	// PIVars, when non-nil, reuses these variables for the primary
	// inputs instead of allocating fresh ones (for input sharing between
	// miter halves). Length must equal the circuit's PI count.
	PIVars []sat.Var
	// KeyVars, when non-nil, reuses these variables for the key inputs.
	KeyVars []sat.Var
	// FixedPIs, when non-nil, constrains the primary inputs to the given
	// constant bits with unit clauses. Length must equal the PI count.
	// May be combined with PIVars (the shared variables get the units).
	FixedPIs []bool
}

// EncodeProgram adds one Tseitin copy of the compiled circuit to the
// solver and returns the variable mapping. Variable numbering follows the
// program's topological order, so repeated encodings of the same program
// are structurally identical.
func EncodeProgram(s *sat.Solver, prog *ir.Program, opts Options) (*Instance, error) {
	if opts.PIVars != nil && len(opts.PIVars) != prog.NumInputs() {
		return nil, fmt.Errorf("cnf: %d shared PI vars for %d inputs", len(opts.PIVars), prog.NumInputs())
	}
	if opts.KeyVars != nil && len(opts.KeyVars) != prog.NumKeys() {
		return nil, fmt.Errorf("cnf: %d shared key vars for %d key inputs", len(opts.KeyVars), prog.NumKeys())
	}
	if opts.FixedPIs != nil && len(opts.FixedPIs) != prog.NumInputs() {
		return nil, fmt.Errorf("cnf: %d fixed PI bits for %d inputs", len(opts.FixedPIs), prog.NumInputs())
	}

	inst := &Instance{NodeVar: make([]sat.Var, prog.NumNodes())}
	for i := range inst.NodeVar {
		inst.NodeVar[i] = -1
	}
	// Assign input variables first (shared or fresh).
	for i, id := range prog.PIs {
		if opts.PIVars != nil {
			inst.NodeVar[id] = opts.PIVars[i]
		} else {
			inst.NodeVar[id] = s.NewVar()
		}
	}
	for i, id := range prog.Keys {
		if opts.KeyVars != nil {
			inst.NodeVar[id] = opts.KeyVars[i]
		} else {
			inst.NodeVar[id] = s.NewVar()
		}
	}

	var fan []sat.Lit
	for _, id32 := range prog.Order {
		id := int(id32)
		op := prog.Ops[id]
		if op == ir.OpInput {
			if inst.NodeVar[id] < 0 {
				return nil, fmt.Errorf("cnf: input node %d not in PI/key lists", id)
			}
			continue
		}
		v := s.NewVar()
		inst.NodeVar[id] = v
		span := prog.FaninSpan(id)
		fan = fan[:0]
		for _, f := range span {
			fan = append(fan, sat.MkLit(inst.NodeVar[f], false))
		}
		if err := EmitGate(s, op, sat.MkLit(v, false), fan); err != nil {
			return nil, fmt.Errorf("cnf: node %d: %w", id, err)
		}
	}

	inst.PIVars = make([]sat.Var, len(prog.PIs))
	for i, id := range prog.PIs {
		inst.PIVars[i] = inst.NodeVar[id]
	}
	inst.KeyVars = make([]sat.Var, len(prog.Keys))
	for i, id := range prog.Keys {
		inst.KeyVars[i] = inst.NodeVar[id]
	}
	inst.POVars = make([]sat.Var, len(prog.POs))
	for i, id := range prog.POs {
		inst.POVars[i] = inst.NodeVar[id]
	}

	if opts.FixedPIs != nil {
		for i, b := range opts.FixedPIs {
			s.AddClause(sat.MkLit(inst.PIVars[i], !b))
		}
	}
	return inst, nil
}

// EmitGate emits the Tseitin clauses for out ↔ op(fan...). It is shared
// with the ATPG encoder so every SAT path emits the same clause shapes.
func EmitGate(s *sat.Solver, op ir.Op, out sat.Lit, fan []sat.Lit) error {
	switch op {
	case ir.OpConst0:
		s.AddClause(out.Not())
	case ir.OpConst1:
		s.AddClause(out)
	case ir.OpBuf:
		equiv(s, out, fan[0])
	case ir.OpNot:
		equiv(s, out, fan[0].Not())
	case ir.OpAnd:
		andGate(s, out, fan)
	case ir.OpNand:
		andGate(s, out.Not(), fan)
	case ir.OpOr:
		orGate(s, out, fan)
	case ir.OpNor:
		orGate(s, out.Not(), fan)
	case ir.OpXor:
		xorChain(s, out, fan)
	case ir.OpXnor:
		xorChain(s, out.Not(), fan)
	default:
		return fmt.Errorf("unsupported gate type %v", op)
	}
	return nil
}

// equiv emits out ↔ a.
func equiv(s *sat.Solver, out, a sat.Lit) {
	s.AddClause(out.Not(), a)
	s.AddClause(out, a.Not())
}

// andGate emits out ↔ AND(fan...).
func andGate(s *sat.Solver, out sat.Lit, fan []sat.Lit) {
	all := make([]sat.Lit, 0, len(fan)+1)
	for _, f := range fan {
		s.AddClause(out.Not(), f) // out → f
		all = append(all, f.Not())
	}
	all = append(all, out)
	s.AddClause(all...) // ∧f → out
}

// orGate emits out ↔ OR(fan...).
func orGate(s *sat.Solver, out sat.Lit, fan []sat.Lit) {
	all := make([]sat.Lit, 0, len(fan)+1)
	for _, f := range fan {
		s.AddClause(out, f.Not()) // f → out
		all = append(all, f)
	}
	all = append(all, out.Not())
	s.AddClause(all...) // out → ∨f
}

// EmitXor2 emits out ↔ a ⊕ b (the four-clause XOR constraint used for
// miter disequality bits as well as gate encodings).
func EmitXor2(s *sat.Solver, out, a, b sat.Lit) {
	s.AddClause(out.Not(), a, b)
	s.AddClause(out.Not(), a.Not(), b.Not())
	s.AddClause(out, a.Not(), b)
	s.AddClause(out, a, b.Not())
}

// xorChain emits out ↔ fan[0] ⊕ fan[1] ⊕ … using auxiliary variables for
// arity above two.
func xorChain(s *sat.Solver, out sat.Lit, fan []sat.Lit) {
	acc := fan[0]
	for i := 1; i < len(fan); i++ {
		var dst sat.Lit
		if i == len(fan)-1 {
			dst = out
		} else {
			dst = sat.MkLit(s.NewVar(), false)
		}
		EmitXor2(s, dst, acc, fan[i])
		acc = dst
	}
	if len(fan) == 1 {
		equiv(s, out, fan[0])
	}
}

// ConstrainBits adds unit clauses forcing each variable to the given bit.
func ConstrainBits(s *sat.Solver, vars []sat.Var, bits []bool) error {
	if len(vars) != len(bits) {
		return fmt.Errorf("cnf: %d vars vs %d bits", len(vars), len(bits))
	}
	for i, v := range vars {
		s.AddClause(sat.MkLit(v, !bits[i]))
	}
	return nil
}

// Miter is the SAT-attack formulation: two copies of a locked circuit that
// share primary inputs but have independent keys K1 and K2, with a
// constraint that at least one output differs.
//
// NewMiter builds the cone-of-influence form (only key-reachable logic is
// duplicated); NewMiterLegacy builds the classical two-full-copy form.
type Miter struct {
	S       *sat.Solver
	Circuit *netlist.Circuit
	// Prog is the compiled form of Circuit; every per-query copy is
	// encoded from it, so the circuit is compiled exactly once per miter.
	Prog   *ir.Program
	PIVars []sat.Var
	Key1   []sat.Var
	Key2   []sat.Var
	// Out1/Out2 hold the primary-output variables of the two key copies,
	// full PO width. In a cone-of-influence miter a key-independent output
	// is the same variable in both slices (the single shared encoding), or
	// -1 when the output is outside the needed support and was never
	// encoded.
	Out1 []sat.Var
	Out2 []sat.Var
	// Act is an activation variable guarding the output-disequality
	// clause: solve under assumption Act=true to search for a
	// distinguishing input, and under Act=false to extract a key that is
	// merely consistent with all recorded observations.
	Act sat.Var

	// Cone-of-influence state (nil/absent on legacy miters).
	coi       *coiInfo
	sharedVar []sat.Var // per node: shared support variable, -1 if not encoded
	constTrue sat.Var   // lazily allocated const-true var for query folding
	evalBuf   []bool    // per-node evaluation buffer for query folding
}

// AssumeDiff returns the assumption literal enabling the disequality.
func (m *Miter) AssumeDiff() sat.Lit { return sat.MkLit(m.Act, false) }

// AssumeNoDiff returns the assumption literal disabling the disequality,
// used for final key extraction.
func (m *Miter) AssumeNoDiff() sat.Lit { return sat.MkLit(m.Act, true) }

// NewMiterLegacy compiles the locked circuit c once, encodes the classical
// miter — two complete copies of the circuit — into a fresh configuration
// on solver s and asserts output disequality. Attacks that reason about
// complete output vectors or need every output variable materialized (the
// bypass attack's full-pattern enumeration) use this form; the SAT-attack
// family uses the cone-of-influence NewMiter.
func NewMiterLegacy(s *sat.Solver, c *netlist.Circuit) (*Miter, error) {
	if c.NumKeys() == 0 {
		return nil, fmt.Errorf("cnf: miter over circuit %q with no key inputs", c.Name)
	}
	prog, err := ir.Compile(c)
	if err != nil {
		return nil, err
	}
	a, err := EncodeProgram(s, prog, Options{})
	if err != nil {
		return nil, err
	}
	b, err := EncodeProgram(s, prog, Options{PIVars: a.PIVars})
	if err != nil {
		return nil, err
	}
	m := &Miter{
		S:         s,
		Circuit:   c,
		Prog:      prog,
		PIVars:    a.PIVars,
		Key1:      a.KeyVars,
		Key2:      b.KeyVars,
		Out1:      a.POVars,
		Out2:      b.POVars,
		constTrue: -1,
	}
	// diff_i ↔ out1_i ⊕ out2_i; assert act → OR(diff_i).
	m.Act = s.NewVar()
	diffs := make([]sat.Lit, 0, len(a.POVars)+1)
	diffs = append(diffs, sat.MkLit(m.Act, true))
	for i := range a.POVars {
		d := sat.MkLit(s.NewVar(), false)
		EmitXor2(s, d, sat.MkLit(a.POVars[i], false), sat.MkLit(b.POVars[i], false))
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...)
	return m, nil
}

// AddIOConstraint records an oracle observation: for input pattern x with
// oracle response y, both key copies must reproduce y on x. On a
// cone-of-influence miter only the key cones are re-encoded (with the
// concrete shared values folded in); a legacy miter encodes two fresh
// complete copies of the compiled program with constant inputs.
func (m *Miter) AddIOConstraint(x, y []bool) error {
	if m.coi != nil {
		return m.addIOConstraintCOI(x, y)
	}
	for _, keys := range [][]sat.Var{m.Key1, m.Key2} {
		inst, err := EncodeProgram(m.S, m.Prog, Options{KeyVars: keys, FixedPIs: x})
		if err != nil {
			return err
		}
		if err := ConstrainBits(m.S, inst.POVars, y); err != nil {
			return err
		}
	}
	return nil
}

// ExtractInputs reads the shared primary-input pattern from the last model.
func (m *Miter) ExtractInputs() []bool {
	x := make([]bool, len(m.PIVars))
	for i, v := range m.PIVars {
		x[i] = m.S.Value(v) == sat.True
	}
	return x
}

// ExtractKey1 reads key copy 1 from the last model.
func (m *Miter) ExtractKey1() []bool { return extract(m.S, m.Key1) }

func extract(s *sat.Solver, vars []sat.Var) []bool {
	out := make([]bool, len(vars))
	for i, v := range vars {
		out[i] = s.Value(v) == sat.True
	}
	return out
}
