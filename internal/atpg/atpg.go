// Package atpg generates stuck-at-fault test patterns, the role Atalanta
// plays in the paper's Table II flow.
//
// The generator is SAT-based rather than PODEM-based: for every target
// fault it encodes the good and faulty circuits (restricted to the
// fault's cone of influence) sharing their inputs, and asserts with a
// TEGUS-style D-chain (encodeFaultCone) that a difference runs from the
// fault site along fanouts to some output. Handing CDCL that path
// structure up front refutes redundant faults, most of what ATPG targets
// after the random phase, in a few conflicts each. The classification
// matches the classic ATPG vocabulary exactly:
//
//   - SAT        → a test pattern (returned and fault-simulated),
//   - UNSAT      → the fault is provably redundant,
//   - budget hit → the fault is aborted.
//
// Key inputs are treated as ordinary, freely controllable inputs: under
// OraP the key register is wired into the scan chains, so "the tool was
// allowed to set any value to the key inputs" (Table II's setup).
//
// A campaign reuses the fault simulator's compiled program and encodes
// every fault cone from the flat IR view;
// the Tseitin clauses themselves come from cnf.EmitGate, so the ATPG and
// attack SAT paths share one gate encoding. Each generated pattern is
// fault-simulated once against every fault still undetected, which
// drops the faults it also detects.
package atpg

import (
	"fmt"

	"orap/internal/cnf"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/sat"
)

// Class is the ATPG outcome for a single fault.
type Class int

// Fault classes.
const (
	// Detected faults have a generated (or fault-simulated) pattern.
	Detected Class = iota
	// Redundant faults are proven untestable.
	Redundant
	// Aborted faults exceeded the effort budget undecided.
	Aborted
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Options bounds ATPG effort.
type Options struct {
	// ConflictBudget bounds SAT conflicts per fault (the "backtrack
	// limit"); 0 means 20000, mirroring a high-effort Atalanta run.
	ConflictBudget int64
}

func (o Options) budget() int64 {
	if o.ConflictBudget > 0 {
		return o.ConflictBudget
	}
	return 20000
}

// Outcome reports one fault's result.
type Outcome struct {
	Fault   faultsim.Fault
	Class   Class
	Pattern []bool // inputs then keys; nil unless Detected by this call
	// Solver carries the per-fault SAT effort (conflicts, propagations,
	// learned-clause figures).
	Solver sat.Stats
}

// generate targets one fault of a compiled circuit and returns its
// outcome.
func generate(prog *ir.Program, f faultsim.Fault, opts Options) (Outcome, error) {
	s := sat.New()
	s.MaxConflicts = opts.budget()

	enc, err := encodeFaultCone(s, prog, f)
	if err != nil {
		return Outcome{}, err
	}
	ok, err := s.Solve()
	if err == sat.ErrBudget {
		return Outcome{Fault: f, Class: Aborted, Solver: s.Stats()}, nil
	}
	if err != nil {
		return Outcome{}, err
	}
	if !ok {
		return Outcome{Fault: f, Class: Redundant, Solver: s.Stats()}, nil
	}
	pattern := make([]bool, len(prog.Inputs))
	for i, id := range prog.Inputs {
		if v := enc.good[id]; v >= 0 {
			pattern[i] = s.Value(v) == sat.True
		}
		// Inputs outside the cone stay false; any value works.
	}
	return Outcome{Fault: f, Class: Detected, Pattern: pattern, Solver: s.Stats()}, nil
}

// coneEncoding carries the variable maps of the restricted good/faulty
// encoding.
type coneEncoding struct {
	// good and faulty map each node of the cone to its variable in the
	// good and the faulty copy (-1 outside the cone). The copies share
	// one variable outside the influenced region.
	good, faulty []sat.Var
	// influenced marks the fault node's transitive fanout.
	influenced []bool
}

// encodeFaultCone encodes the fault's good/faulty copies (encodeCopies)
// and asserts, with a D-chain (TEGUS: Stephan, Brayton and
// Sangiovanni-Vincentelli, IEEE TCAD 1996), that the fault effect
// travels from the fault site to an output. Every influenced node n gets
// a variable d_n with
//
//	d_n → good_n ≠ faulty_n,
//	d_n → d_m for some fanout m of n, unless n is an output,
//	d_site.
//
// The formula is satisfiable exactly when the fault is testable. A test
// makes some output differ, and a difference enters the faulty copy only
// at the site, so a path of differing nodes runs from the site to that
// output; setting d on that path alone satisfies the chain. Conversely a
// model's chain starts at the site and, the region being acyclic, ends at
// an output whose copies differ, so its inputs form a test. A fault with
// no output in its fanout is refuted by unit propagation alone.
func encodeFaultCone(s *sat.Solver, prog *ir.Program, f faultsim.Fault) (*coneEncoding, error) {
	enc, err := encodeCopies(s, prog, f)
	if err != nil {
		return nil, err
	}
	isPO := make([]bool, prog.NumNodes())
	for _, o := range prog.POs {
		isPO[o] = true
	}
	d := make([]sat.Lit, prog.NumNodes())
	for id, in := range enc.influenced {
		if in {
			d[id] = sat.MkLit(s.NewVar(), false)
		}
	}
	var next []sat.Lit
	for id, in := range enc.influenced {
		if !in {
			continue
		}
		g, fv := sat.MkLit(enc.good[id], false), sat.MkLit(enc.faulty[id], false)
		s.AddClause(d[id].Not(), g, fv)
		s.AddClause(d[id].Not(), g.Not(), fv.Not())
		if isPO[id] {
			continue
		}
		next = append(next[:0], d[id].Not())
		for _, fo := range prog.FanoutSpan(id) {
			next = append(next, d[fo])
		}
		s.AddClause(next...)
	}
	s.AddClause(d[f.Node])
	return enc, nil
}

// encodeCopies adds CNF for the good and faulty circuit restricted to the
// union of the fault's output cone and that cone's input support, sharing
// input variables. It asserts nothing about the outputs.
func encodeCopies(s *sat.Solver, prog *ir.Program, f faultsim.Fault) (*coneEncoding, error) {
	if f.Node < 0 || f.Node >= prog.NumNodes() {
		return nil, fmt.Errorf("atpg: fault node %d out of range", f.Node)
	}
	// Influence region: transitive fanout of the fault node; support:
	// transitive fanin of that region.
	influenced := prog.TransitiveFanout(f.Node)
	need := make([]bool, prog.NumNodes())
	stack := []int{}
	for id := range influenced {
		if influenced[id] {
			need[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range prog.FaninSpan(id) {
			if !need[fi] {
				need[fi] = true
				stack = append(stack, int(fi))
			}
		}
	}

	goodVar := make([]sat.Var, prog.NumNodes())
	faultVar := make([]sat.Var, prog.NumNodes())
	for i := range goodVar {
		goodVar[i] = -1
		faultVar[i] = -1
	}
	enc := &coneEncoding{good: goodVar, faulty: faultVar, influenced: influenced}

	lits := func(vars []sat.Var, ids []int32) []sat.Lit {
		ls := make([]sat.Lit, len(ids))
		for i, id := range ids {
			ls[i] = sat.MkLit(vars[id], false)
		}
		return ls
	}

	for _, id32 := range prog.Order {
		id := int(id32)
		if !need[id] {
			continue
		}
		op := prog.Ops[id]
		fanin := prog.FaninSpan(id)
		// Good copy.
		gv := s.NewVar()
		goodVar[id] = gv
		if op != ir.OpInput {
			if err := cnf.EmitGate(s, op, sat.MkLit(gv, false), lits(goodVar, fanin)); err != nil {
				return nil, err
			}
		}
		// Faulty copy: nodes outside the influenced region share the
		// good variable; influenced nodes get their own, with the fault
		// injected at the fault site.
		if !influenced[id] {
			faultVar[id] = gv
			continue
		}
		fv := s.NewVar()
		faultVar[id] = fv
		switch {
		case id == f.Node && f.Pin < 0:
			// Output fault: the node is a constant.
			s.AddClause(sat.MkLit(fv, !f.SA1))
		case op == ir.OpInput:
			// An influenced input can only be the fault node itself
			// (inputs have no fanin); constrain equal to good.
			s.AddClause(sat.MkLit(fv, true), sat.MkLit(gv, false))
			s.AddClause(sat.MkLit(fv, false), sat.MkLit(gv, true))
		default:
			fan := lits(faultVar, fanin)
			if id == f.Node && f.Pin >= 0 {
				// Input-pin fault: replace that pin with a constant.
				cv := s.NewVar()
				s.AddClause(sat.MkLit(cv, !f.SA1))
				fan[f.Pin] = sat.MkLit(cv, false)
			}
			if err := cnf.EmitGate(s, op, sat.MkLit(fv, false), fan); err != nil {
				return nil, err
			}
		}
	}
	return enc, nil
}

// Summary aggregates a full ATPG campaign.
type Summary struct {
	Total     int
	Detected  int
	Redundant int
	Aborted   int
	// Patterns holds the generated test patterns (deduplicated runs may
	// hold fewer than Detected).
	Patterns [][]bool
	// Solver aggregates the SAT effort across every targeted fault.
	Solver sat.Stats
}

// Coverage returns the stuck-at fault coverage in percent: detected over
// total, the definition Table II reports.
func (s Summary) Coverage() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Detected) / float64(s.Total)
}

// RedundantPlusAborted returns the paper's "# Red.+Abrt faults" column.
func (s Summary) RedundantPlusAborted() int { return s.Redundant + s.Aborted }

// Run performs the full Table II flow on a circuit: collapse the fault
// list, drop the easy faults with `randomBlocks` blocks of random-pattern
// fault simulation (the HOPE step), then target every remaining fault
// with the SAT generator. Each generated pattern is fault-simulated once
// against the whole live list, so faults it also detects skip
// generation; a pattern that does not detect its own target is an error.
// The fault simulator's compiled program is reused for every cone
// encoding, so the circuit is never recompiled per fault.
func Run(c *netlist.Circuit, fsim *faultsim.Simulator, randomResult faultsim.Result, opts Options) (Summary, error) {
	prog := fsim.Program()
	sum := Summary{Total: randomResult.Total, Detected: randomResult.Detected}
	live := append([]faultsim.Fault(nil), randomResult.Remaining...)
	for len(live) > 0 {
		f := live[0]
		out, err := generate(prog, f, opts)
		if err != nil {
			return sum, err
		}
		sum.Solver.Add(out.Solver)
		switch out.Class {
		case Redundant:
			sum.Redundant++
			live = live[1:]
		case Aborted:
			sum.Aborted++
			live = live[1:]
		case Detected:
			sum.Patterns = append(sum.Patterns, out.Pattern)
			// The target heads the list; drop every fault the pattern
			// detects, the target included.
			hit, err := fsim.DetectsEach(live, out.Pattern)
			if err != nil {
				return sum, err
			}
			if !hit[0] {
				return sum, fmt.Errorf("atpg: generated pattern does not detect %v", f)
			}
			kept := live[:0]
			for i, g := range live {
				if hit[i] {
					sum.Detected++
				} else {
					kept = append(kept, g)
				}
			}
			live = kept
		}
	}
	return sum, nil
}
