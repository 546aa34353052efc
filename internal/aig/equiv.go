package aig

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/sat"
)

// stage names the step of Equivalent that decided its verdict.
type stage uint8

const (
	byStrash stage = iota // every output pair hashed to one literal
	bySAT                 // the miter over the pairs left open decided
)

// Equivalent reports whether the locked program under key computes the
// same function as the keyless reference ref, the way ABC's cec does.
// Both programs are strashed into one AIG over shared primary-input
// literals, with the key bits as constants, so every output pair that
// hashes to one literal is proven equal. Only the cones of the pairs
// left open are encoded into a fresh SAT miter, without a conflict
// budget. Both exits are exact.
func Equivalent(locked *ir.Program, key []bool, ref *ir.Program) (bool, error) {
	eq, _, err := equivalent(locked, key, ref)
	return eq, err
}

func equivalent(locked *ir.Program, key []bool, ref *ir.Program) (bool, stage, error) {
	if len(key) != locked.NumKeys() || ref.NumKeys() != 0 ||
		locked.NumInputs() != ref.NumInputs() || locked.NumOutputs() != ref.NumOutputs() {
		return false, 0, fmt.Errorf("aig: %q under a %d-bit key and %q differ in shape", locked.Name, len(key), ref.Name)
	}
	g := newAIG()
	in := make([]Lit, len(locked.Inputs))
	for i := range locked.PIs {
		in[i] = g.AddPI()
	}
	for i, bit := range key {
		in[len(locked.PIs)+i] = ConstFalse
		if bit {
			in[len(locked.PIs)+i] = ConstTrue
		}
	}
	ll, err := g.addProgram(locked, in)
	if err != nil {
		return false, 0, err
	}
	rl, err := g.addProgram(ref, in[:len(locked.PIs)])
	if err != nil {
		return false, 0, err
	}
	var a, b []Lit
	for j, o := range locked.POs {
		if lo, ro := ll[o], rl[ref.POs[j]]; lo != ro {
			a, b = append(a, lo), append(b, ro)
		}
	}
	if len(a) == 0 {
		return true, byStrash, nil
	}
	s := sat.New()
	pi := make([]sat.Var, len(g.pis))
	for i := range pi {
		pi[i] = s.NewVar()
	}
	lits := g.encode(s, pi, append(a, b...))
	diff, err := differs(s, lits[:len(a)], lits[len(a):])
	return !diff, bySAT, err
}

// encode adds the Tseitin clauses of the cones of roots to s, three per
// AND node, and returns each root's solver literal. pi holds the solver
// variable of each primary input in AddPI order, so two graphs encoded
// with the same slice share their inputs.
func (g *AIG) encode(s *sat.Solver, pi []sat.Var, roots []Lit) []sat.Lit {
	// Fanins precede their node, so one descending pass marks the cones.
	cone := make([]bool, len(g.nodes))
	for _, r := range roots {
		cone[r.Node()] = true
	}
	for id := len(g.nodes) - 1; id > 0; id-- {
		if n := &g.nodes[id]; cone[id] && !n.isPI {
			cone[n.f0.Node()], cone[n.f1.Node()] = true, true
		}
	}
	vars := make([]sat.Var, len(g.nodes))
	for i, id := range g.pis {
		vars[id] = pi[i]
	}
	lit := func(l Lit) sat.Lit { return sat.MkLit(vars[l.Node()], l.Compl()) }
	for id, n := range g.nodes {
		if !cone[id] || n.isPI {
			continue
		}
		vars[id] = s.NewVar()
		out := sat.MkLit(vars[id], false)
		if id == 0 {
			s.AddClause(out) // the constant-true node
			continue
		}
		a, b := lit(n.f0), lit(n.f1)
		s.AddClause(out.Not(), a)
		s.AddClause(out.Not(), b)
		s.AddClause(out, a.Not(), b.Not())
	}
	out := make([]sat.Lit, len(roots))
	for i, r := range roots {
		out[i] = lit(r)
	}
	return out
}

// differs reports whether s has a model in which some pair a[i], b[i]
// takes different values; false proves every pair equal. Each pair gets
// a selector d with d → a[i] ≠ b[i], and one clause asks for some d.
func differs(s *sat.Solver, a, b []sat.Lit) (bool, error) {
	sel := make([]sat.Lit, len(a))
	for i := range a {
		d := sat.MkLit(s.NewVar(), false)
		s.AddClause(d.Not(), a[i], b[i])
		s.AddClause(d.Not(), a[i].Not(), b[i].Not())
		sel[i] = d
	}
	s.AddClause(sel...)
	return s.Solve()
}
