// Package cnf translates gate-level circuits into CNF via the Tseitin
// transformation and builds the miter every oracle-guided attack shares.
//
// The miter (NewMiter) encodes the key inputs' cone of influence twice,
// with independent key variables, over one shared encoding of the
// key-free logic and the primary inputs, plus a disequality constraint
// over the key-reachable outputs. Each oracle query then adds two more
// cone copies with the key-free logic read as constants under the
// query's inputs and the outputs fixed to the oracle's response. The
// key-only part of the cone, a function of the key alone, is encoded
// once per key vector: every query's copy under that key reads the
// literals of the miter's own copy. One encoder builds every copy: it
// folds constants, gives a gate left with one live fanin that fanin's
// literal, and looks up every other gate in a structural hash of the
// gates earlier copies defined, as ABC's strash does. All of those
// encodings are provided here so the attack packages stay free of
// clause-level detail.
//
// Every gate output and disequality bit the miter encodes is a derived
// solver variable (sat.Solver.NewDerivedVar): its clauses fix it once
// the primary inputs, key copies and activation literal are assigned,
// so the search branches only on those. A folded or aliased gate takes
// no variable at all, and identical gates share one. The auxiliary
// variables of wide XORs (xorChain, which EmitGate also calls) stay
// ordinary: making them derived would move the attacks' DIP sequences.
//
// Encoding runs over the compiled circuit IR (internal/ir): a Miter
// compiles its circuit once and every per-query copy re-walks the same
// flat program, so clause emission order — and hence variable numbering —
// is reproducible and independent of the netlist's mutable state.
package cnf

import (
	"fmt"

	"orap/internal/ir"
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

	inst := &Instance{NodeVar: filled(prog.NumNodes(), sat.Var(-1))}
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
