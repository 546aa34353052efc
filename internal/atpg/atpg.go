// Package atpg generates stuck-at-fault test patterns, the role Atalanta
// plays in the paper's Table II flow.
//
// The generator is SAT-based rather than PODEM-based: for every target
// fault it encodes the faulty circuit over the fault's cone of influence,
// reading the good circuit outside it, and asserts with a TEGUS-style
// D-chain (campaign.target) that a difference runs from the fault site
// along fanouts to some output. Handing CDCL that path structure up
// front refutes redundant faults, most of what ATPG targets after the
// random phase, in a few conflicts each. The classification matches the
// classic ATPG vocabulary exactly:
//
//   - SAT        → a test pattern (returned and fault-simulated),
//   - UNSAT      → the fault is provably redundant,
//   - budget hit → the fault is aborted.
//
// Key inputs are treated as ordinary, freely controllable inputs: under
// OraP the key register is wired into the scan chains, so "the tool was
// allowed to set any value to the key inputs" (Table II's setup).
//
// One solver serves a whole campaign. The good circuit is encoded once,
// lazily as faults need it, and stays; each fault's faulty cone and
// D-chain are added on a solver mark and rolled back after its solve.
// The campaign reuses the fault simulator's compiled program, and the
// Tseitin clauses come from cnf.EmitGate, so the ATPG and attack SAT
// paths share one gate encoding. Each generated pattern is
// fault-simulated once against every fault still undetected, which
// drops the faults it also detects.
package atpg

import (
	"cmp"
	"fmt"
	"slices"

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
}

// campaign is the one solver behind a Run. The good circuit is encoded
// lazily, each node once, and persists. Each fault's faulty copy and
// D-chain are encoded on a solver mark, solved and rolled back, so the
// solver holds the good circuit plus one fault at a time.
type campaign struct {
	prog   *ir.Program
	s      *sat.Solver
	budget int64
	isPO   []bool
	// good maps each node to its good-copy variable, -1 until encoded.
	// faulty maps the current fault's influenced nodes to their faulty
	// copy and is -1 elsewhere; d holds their D-chain literals.
	good, faulty []sat.Var
	d            []sat.Lit
	// Buffers reused across faults: the influenced region, the good
	// nodes to encode and a gate's fanin literals.
	region, todo []int32
	fan          []sat.Lit
}

func newCampaign(prog *ir.Program, opts Options) *campaign {
	n := prog.NumNodes()
	c := &campaign{prog: prog, s: sat.New(), budget: opts.budget(), isPO: make([]bool, n),
		good: make([]sat.Var, n), faulty: make([]sat.Var, n), d: make([]sat.Lit, n)}
	for i := range c.good {
		c.good[i], c.faulty[i] = -1, -1
	}
	for _, o := range prog.POs {
		c.isPO[o] = true
	}
	return c
}

// target classifies one fault. It first encodes the part of the fault's
// need region, the transitive fanin of its influenced region (the fault
// site's transitive fanout), that no earlier fault encoded, in
// topological order: inputs as ordinary variables, gate outputs as
// derived ones. That good circuit stays. Then, on a mark, it encodes the
// faulty copy of the influenced region, which reads the good copy
// outside it and has the fault site as a constant, and a D-chain (TEGUS:
// Stephan, Brayton and Sangiovanni-Vincentelli, IEEE TCAD 1996) asking
// that the fault effect travel from the site to an output. Every
// influenced node n gets an ordinary variable d_n with
//
//	d_n → good_n ≠ faulty_n,
//	d_n → d_m for some fanout m of n, unless n is an output,
//
// and the solver runs under the assumption d_site. That is satisfiable
// exactly when the fault is testable. A test makes some output differ,
// and a difference enters the faulty copy only at the site, so a path of
// differing nodes runs from the site to that output; setting d on that
// path alone satisfies the chain. Conversely a model's chain starts at
// the site and, the region being acyclic, ends at an output whose copies
// differ, so its inputs form a test. Good-circuit definitions outside
// the need region constrain nothing the fault reads, so the class is the
// one a fresh solver with the fault's cone alone would give; only the
// model, and with it the pattern, may differ. The mark is rolled back
// before target returns.
func (c *campaign) target(f faultsim.Fault) (Outcome, error) {
	prog, s := c.prog, c.s
	if f.Node < 0 || f.Node >= prog.NumNodes() || f.Pin >= len(prog.FaninSpan(f.Node)) {
		return Outcome{}, fmt.Errorf("atpg: fault %v is not in the circuit", f)
	}
	byPos := func(a, b int32) int { return cmp.Compare(prog.Pos[a], prog.Pos[b]) }
	// -2 marks a node collected but not yet given a variable.
	region := append(c.region[:0], int32(f.Node))
	c.faulty[f.Node] = -2
	for i := 0; i < len(region); i++ {
		for _, fo := range prog.FanoutSpan(int(region[i])) {
			if c.faulty[fo] == -1 {
				c.faulty[fo] = -2
				region = append(region, fo)
			}
		}
	}
	slices.SortFunc(region, byPos)
	todo := c.todo[:0]
	for _, id := range region {
		if c.good[id] == -1 {
			c.good[id] = -2
			todo = append(todo, id)
		}
	}
	for i := 0; i < len(todo); i++ {
		for _, fi := range prog.FaninSpan(int(todo[i])) {
			if c.good[fi] == -1 {
				c.good[fi] = -2
				todo = append(todo, fi)
			}
		}
	}
	slices.SortFunc(todo, byPos)
	c.region, c.todo = region, todo
	for _, id := range todo {
		if prog.Ops[id] == ir.OpInput {
			c.good[id] = s.NewVar()
			continue
		}
		c.good[id] = s.NewDerivedVar()
		if err := cnf.EmitGate(s, prog.Ops[id], sat.MkLit(c.good[id], false), c.fanin(id)); err != nil {
			return Outcome{}, err
		}
	}

	mark := s.Mark()
	defer func() {
		s.Rollback(mark)
		for _, id := range region {
			c.faulty[id] = -1
		}
	}()
	for _, id := range region {
		fv := s.NewDerivedVar()
		c.faulty[id] = fv
		if int(id) == f.Node && f.Pin < 0 {
			s.AddClause(sat.MkLit(fv, !f.SA1))
			continue
		}
		// Only the site can be an input, which has no fanin to read and
		// no pin to fault, so every other influenced node is a gate.
		fan := c.fanin(id)
		if int(id) == f.Node {
			cv := s.NewDerivedVar()
			s.AddClause(sat.MkLit(cv, !f.SA1))
			fan[f.Pin] = sat.MkLit(cv, false)
		}
		if err := cnf.EmitGate(s, prog.Ops[id], sat.MkLit(fv, false), fan); err != nil {
			return Outcome{}, err
		}
	}
	for _, id := range region {
		c.d[id] = sat.MkLit(s.NewVar(), false)
	}
	for _, id := range region {
		d, g, fv := c.d[id], sat.MkLit(c.good[id], false), sat.MkLit(c.faulty[id], false)
		s.AddClause(d.Not(), g, fv)
		s.AddClause(d.Not(), g.Not(), fv.Not())
		if c.isPO[id] {
			continue
		}
		c.fan = append(c.fan[:0], d.Not())
		for _, fo := range prog.FanoutSpan(int(id)) {
			c.fan = append(c.fan, c.d[fo])
		}
		s.AddClause(c.fan...)
	}

	// MaxConflicts bounds the solver's lifetime, so the fault's budget
	// starts from the conflicts spent so far.
	s.MaxConflicts = s.Stats().Conflicts + c.budget
	out := Outcome{Fault: f}
	switch ok, err := s.Solve(c.d[f.Node]); {
	case err == sat.ErrBudget:
		out.Class = Aborted
	case err != nil:
		return Outcome{}, err
	case !ok:
		out.Class = Redundant
	default:
		out.Class = Detected
		out.Pattern = make([]bool, len(prog.Inputs))
		for i, id := range prog.Inputs {
			// Inputs no fault has needed yet stay false; any value works.
			if v := c.good[id]; v >= 0 {
				out.Pattern[i] = s.Value(v) == sat.True
			}
		}
	}
	return out, nil
}

// fanin returns node id's fanin literals, read from the faulty copy
// inside the current influenced region and from the good copy outside
// it; before the faulty copy is encoded, all from the good copy. The
// slice is reused by the next call.
func (c *campaign) fanin(id int32) []sat.Lit {
	c.fan = c.fan[:0]
	for _, fi := range c.prog.FaninSpan(int(id)) {
		v := c.good[fi]
		if c.faulty[fi] >= 0 {
			v = c.faulty[fi]
		}
		c.fan = append(c.fan, sat.MkLit(v, false))
	}
	return c.fan
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
	// Solver is the campaign solver's effort across every targeted fault.
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

// Run is the deterministic phase of the Table II flow (the Atalanta
// step). The caller has already collapsed the fault list and dropped the
// easy faults with fsim.RunRandom (the HOPE step); Run keeps that
// result's totals and targets every fault it left with the SAT
// generator. Each generated pattern is fault-simulated once against the
// whole live list, so faults it also detects skip generation; a pattern
// that does not detect its own target is an error. One solver serves the
// whole campaign (see campaign), and the fault simulator's compiled
// program is reused for every encoding, so the circuit is never
// recompiled per fault.
//
// Run never reads c; the argument is kept only because perfbench passes
// it.
func Run(c *netlist.Circuit, fsim *faultsim.Simulator, randomResult faultsim.Result, opts Options) (Summary, error) {
	cam := newCampaign(fsim.Program(), opts)
	sum := Summary{Total: randomResult.Total, Detected: randomResult.Detected}
	live := append([]faultsim.Fault(nil), randomResult.Remaining...)
	for len(live) > 0 {
		f := live[0]
		out, err := cam.target(f)
		sum.Solver = cam.s.Stats()
		if err != nil {
			return sum, err
		}
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
