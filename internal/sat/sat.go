// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat/Glucose lineage: two-literal watching with
// blocking literals, a specialized binary-clause watch representation,
// first-UIP conflict analysis with on-the-fly clause minimization, VSIDS
// variable activity, phase saving, Luby restarts and LBD-tiered
// learned-clause reduction.
//
// It is the engine behind the oracle-guided SAT attack of Subramanyan et
// al. that the OraP paper defends against, and the solver is deliberately
// self-contained (stdlib only) so the whole attack stack reproduces
// offline. The solver is fully deterministic: the same clause/assumption
// sequence produces the same models, conflicts and Stats on every run.
package sat

import (
	"fmt"
	"slices"
)

// Var is a 0-based propositional variable index.
type Var int32

// Lit is a literal: variable times two, plus one when negated.
type Lit int32

// MkLit builds a literal from a variable and a sign (neg=true ⇒ ¬v).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v<n> or ¬v<n>.
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// LBool is a three-valued boolean.
type LBool int8

// The three truth values.
const (
	False LBool = -1
	Undef LBool = 0
	True  LBool = 1
)

func boolToLBool(b bool) LBool {
	if b {
		return True
	}
	return False
}

// Not returns the logical complement (Undef maps to itself).
func (b LBool) Not() LBool { return -b }

type clause struct {
	lits     []Lit
	activity float64
	lbd      int32
	learnt   bool
}

// watcher is the long-clause (≥3 literals) watch entry. The blocking
// literal lets propagation skip the clause without touching its memory
// whenever the blocker is already satisfied.
type watcher struct {
	c       *clause
	blocker Lit
}

// binWatch is the specialized binary-clause watch entry: when the watched
// literal is falsified the only possible consequence is `other`, so
// binary propagation reads nothing but the watcher itself. The clause
// pointer is carried only as the reason for conflict analysis.
type binWatch struct {
	other Lit
	c     *clause
}

// glueLBD is the LBD at or below which a learned clause is "glue":
// reduceDB never evicts it (Glucose's core tier).
const glueLBD = 2

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses    []*clause
	learnts    []*clause
	watches    [][]watcher  // indexed by Lit; long clauses only
	binWatches [][]binWatch // indexed by Lit; binary clauses only

	assigns  []LBool // per var
	level    []int32
	reason   []*clause
	polarity []bool // saved phase per var
	activity []float64
	varInc   float64

	heap     varHeap
	trail    []Lit
	trailLim []int
	qhead    int

	seen       []bool
	analyzeBuf []Lit
	levelMark  []int64 // per decision level, stamped by computeLBD
	lbdStamp   int64

	ok    bool
	model []LBool

	// MaxConflicts, when positive, bounds the total conflicts across the
	// solver's lifetime; Solve returns ErrBudget once exceeded.
	MaxConflicts int64

	stats Stats
}

// ErrBudget is returned by Solve when MaxConflicts is exhausted.
var ErrBudget = fmt.Errorf("sat: conflict budget exhausted")

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, ok: true, levelMark: make([]int64, 1)}
	s.heap.s = s
	return s
}

// Stats returns a copy of the solver counters.
func (s *Solver) Stats() Stats { return s.stats }

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates a fresh variable that the search may branch on.
func (s *Solver) NewVar() Var {
	v := s.addVar()
	s.heap.insert(v)
	return v
}

// NewDerivedVar allocates a fresh variable that unit propagation fixes
// once every variable from NewVar is assigned, such as a Tseitin gate
// output whose defining clauses are all added. The search never branches
// on it, so it never enters the VSIDS heap. Solve panics when a model
// leaves a derived variable unassigned.
func (s *Solver) NewDerivedVar() Var {
	v := s.addVar()
	s.heap.exclude(v)
	return v
}

func (s *Solver) addVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, Undef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, true) // default phase: false (neg lit)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	s.levelMark = append(s.levelMark, 0)
	return v
}

func (s *Solver) valueLit(l Lit) LBool {
	v := s.assigns[l.Var()]
	if l.Neg() {
		return v.Not()
	}
	return v
}

// Value returns the value of v in the most recent satisfying model.
func (s *Solver) Value(v Var) LBool {
	if int(v) < len(s.model) {
		return s.model[v]
	}
	return Undef
}

// ValueLit returns the value of literal l in the most recent model.
func (s *Solver) ValueLit(l Lit) LBool {
	v := s.Value(l.Var())
	if l.Neg() {
		return v.Not()
	}
	return v
}

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state (e.g. after adding an empty
// or immediately conflicting clause).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called during search")
	}
	// Normalize: sort-unique, drop false lits, detect tautology.
	norm := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: clause uses unallocated variable %d", l.Var()))
		}
		switch s.valueLit(l) {
		case True:
			return true // satisfied at level 0
		case False:
			continue // drop
		}
		dup := false
		for _, e := range norm {
			if e == l {
				dup = true
				break
			}
			if e == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			norm = append(norm, l)
		}
	}
	switch len(norm) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], nil)
		s.ok = s.propagate() == nil
		return s.ok
	}
	c := &clause{lits: norm}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	if len(c.lits) == 2 {
		s.binWatches[c.lits[0].Not()] = append(s.binWatches[c.lits[0].Not()], binWatch{c.lits[1], c})
		s.binWatches[c.lits[1].Not()] = append(s.binWatches[c.lits[1].Not()], binWatch{c.lits[0], c})
		return
	}
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) detach(c *clause) {
	if len(c.lits) == 2 {
		for _, l := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
			ws := s.binWatches[l]
			for i := range ws {
				if ws[i].c == c {
					ws[i] = ws[len(ws)-1]
					s.binWatches[l] = ws[:len(ws)-1]
					break
				}
			}
		}
		return
	}
	for _, l := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[l]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	s.assigns[v] = boolToLBool(!l.Neg())
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation and returns the conflicting clause,
// or nil when no conflict arises.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		// Binary watchers first: the implied literal lives in the watch
		// entry, so this pass never dereferences clause memory.
		for _, w := range s.binWatches[p] {
			switch s.valueLit(w.other) {
			case False:
				s.qhead = len(s.trail)
				return w.c
			case Undef:
				s.stats.BinPropagations++
				s.uncheckedEnqueue(w.other, w.c)
			}
		}
		ws := s.watches[p]
		j := 0
		var confl *clause
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.valueLit(w.blocker) == True {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.valueLit(first) == True {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != False {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if s.valueLit(first) == False {
				confl = c
				// Copy remaining watchers and stop.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return confl
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return nil
}

func (s *Solver) varBump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) varDecay() { s.varInc /= 0.95 }

func (s *Solver) claBump(c *clause) {
	c.activity++
}

// computeLBD returns the literal block distance of the clause: the number
// of distinct non-root decision levels among its literals (Glucose's
// quality measure — low-LBD clauses connect few decision blocks and stay
// useful across restarts).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdStamp++
	var lbd int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv > 0 && s.levelMark[lv] != s.lbdStamp {
			s.levelMark[lv] = s.lbdStamp
			lbd++
		}
	}
	return lbd
}

// analyze performs first-UIP conflict analysis and returns the learned
// clause (with the asserting literal first), the backtrack level and the
// clause's LBD.
func (s *Solver) analyze(confl *clause) ([]Lit, int, int32) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, 0) // placeholder for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if confl.learnt {
			s.claBump(confl)
		}
		for _, q := range confl.lits {
			// Skip the asserted literal when walking a reason clause. The
			// positional skip of lits[0] is not valid for binary reasons
			// reached through binWatches, whose literal order is fixed at
			// attach time.
			if p != -1 && q.Var() == p.Var() {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.varBump(v)
				if int(s.level[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick next literal on the trail that is marked.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}

	// On-the-fly clause minimization: drop literals implied by the rest.
	// Clear seen flags of dropped literals too, or later conflicts would
	// inherit stale marks.
	before := len(learnt)
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.redundant(l) {
			s.seen[l.Var()] = false
		} else {
			out = append(out, l)
		}
	}
	learnt = out
	s.stats.MinimizedLits += int64(before - len(learnt))

	// Backtrack level: second-highest decision level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	lbd := s.computeLBD(learnt)
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	s.analyzeBuf = learnt
	res := make([]Lit, len(learnt))
	copy(res, learnt)
	return res, btLevel, lbd
}

// redundant reports whether literal l in a learned clause is implied by a
// reason clause whose other literals are all already in the clause or at
// level 0 (one-step minimization).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == nil {
		return false
	}
	for _, q := range r.lits {
		if q.Var() == l.Var() {
			continue
		}
		if s.level[q.Var()] != 0 && !s.seen[q.Var()] {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == False // phase saving
		s.assigns[v] = Undef
		s.reason[v] = nil
		s.heap.insert(v) // a no-op for derived variables
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() Var {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.assigns[v] == Undef {
			return v
		}
	}
	return -1
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return int64(1) << seq
}

// reduceDB evicts roughly half of the evictable learned clauses. The
// policy is LBD-tiered, Glucose-style: binary clauses, glue clauses
// (LBD ≤ 2) and clauses locked as reasons on the current trail are never
// evicted; the rest are ranked by LBD (ties broken toward keeping the
// more active clause) and the worse half is detached.
//
// Learned-clause sets smaller than four are left alone: median-selecting
// on a near-empty candidate slice is meaningless and the clauses are
// cheap to keep.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 4 {
		return
	}
	locked := func(c *clause) bool {
		v := c.lits[0].Var()
		return s.assigns[v] != Undef && s.reason[v] == c
	}
	evictable := func(c *clause) bool {
		return len(c.lits) > 2 && c.lbd > glueLBD && !locked(c)
	}
	// Composite rank: LBD dominates, clause activity breaks ties (higher
	// score = better eviction candidate). Activities are conflict counts,
	// far below the tier width, so tiers never interleave.
	score := func(c *clause) float64 {
		return float64(c.lbd)*1e12 - c.activity
	}
	scores := make([]float64, 0, len(s.learnts))
	for _, c := range s.learnts {
		if evictable(c) {
			scores = append(scores, score(c))
		}
	}
	if len(scores) < 4 {
		return
	}
	med := quickSelectMedian(scores)
	removed := 0
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !evictable(c) || score(c) < med || removed*2 >= len(scores) {
			kept = append(kept, c)
		} else {
			s.detach(c)
			removed++
		}
	}
	s.learnts = kept
	if removed > 0 {
		s.stats.Reductions++
		s.stats.RemovedClauses += int64(removed)
	}
}

// quickSelectMedian returns the median element of a (by value, not
// position) without fully sorting it. Empty input returns 0.
func quickSelectMedian(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	b := append([]float64(nil), a...)
	k := len(b) / 2
	lo, hi := 0, len(b)-1
	for lo < hi {
		p := b[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for b[i] < p {
				i++
			}
			for b[j] > p {
				j--
			}
			if i <= j {
				b[i], b[j] = b[j], b[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return b[k]
}

// recordLearnt updates the learning counters for one learned clause.
func (s *Solver) recordLearnt(lits []Lit, lbd int32) {
	s.stats.Learnt++
	s.stats.LearntLits += int64(len(lits))
	s.stats.LBDSum += int64(lbd)
	bucket := int(lbd) - 1
	if bucket < 0 {
		bucket = 0
	}
	if bucket >= LBDBuckets {
		bucket = LBDBuckets - 1
	}
	s.stats.LBDHist[bucket]++
}

// Solve searches for a satisfying assignment under the given assumption
// literals. It returns (true, nil) when satisfiable (the model is then
// available via Value), (false, nil) when unsatisfiable under the
// assumptions, and (false, ErrBudget) if MaxConflicts was exceeded. It
// panics, naming the variable, when a model leaves a derived variable
// unassigned: that variable lacks the clauses NewDerivedVar requires.
func (s *Solver) Solve(assumptions ...Lit) (bool, error) {
	if !s.ok {
		return false, nil
	}
	// Already-satisfied assumptions open empty pseudo-decision levels, so
	// the level count is bounded by numVars+len(assumptions), not numVars;
	// levelMark must cover the whole range for computeLBD.
	for len(s.levelMark) <= s.NumVars()+len(assumptions) {
		s.levelMark = append(s.levelMark, 0)
	}
	defer s.backtrackTo(0)

	restarts := int64(0)
	for {
		budget := 100 * luby(restarts+1)
		status, err := s.search(budget, assumptions)
		if err != nil {
			return false, err
		}
		if status != Undef {
			if status == True {
				if v := slices.Index(s.assigns, Undef); v >= 0 {
					panic(fmt.Sprintf("sat: derived variable v%d is unassigned in the model", v))
				}
				s.model = append(s.model[:0], s.assigns...)
				return true, nil
			}
			return false, nil
		}
		restarts++
		s.stats.Restarts++
		if s.MaxConflicts > 0 && s.stats.Conflicts >= s.MaxConflicts {
			return false, ErrBudget
		}
	}
}

// search runs CDCL until a result, a conflict budget is hit (Undef), or the
// assumption set is refuted.
func (s *Solver) search(budget int64, assumptions []Lit) (LBool, error) {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return False, nil
			}
			learnt, btLevel, lbd := s.analyze(confl)
			// Backtrack exactly to the asserting level. Assumption levels
			// may be retracted here; the decision loop below re-enqueues
			// them (learned clauses are global consequences, so this is
			// sound).
			s.backtrackTo(btLevel)
			s.recordLearnt(learnt, lbd)
			if len(learnt) == 1 {
				if s.valueLit(learnt[0]) == False {
					s.ok = false
					return False, nil
				}
				if s.valueLit(learnt[0]) == Undef {
					s.uncheckedEnqueue(learnt[0], nil)
				}
			} else {
				c := &clause{lits: learnt, learnt: true, activity: 1, lbd: lbd}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				if s.valueLit(learnt[0]) == Undef {
					s.uncheckedEnqueue(learnt[0], c)
				}
			}
			s.varDecay()
			if len(s.learnts) > 4000+len(s.clauses) {
				s.reduceDB()
			}
			continue
		}
		if conflicts >= budget {
			s.backtrackTo(0)
			return Undef, nil
		}
		if s.MaxConflicts > 0 && s.stats.Conflicts >= s.MaxConflicts {
			return Undef, ErrBudget
		}
		// Extend with assumptions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case True:
				// Already satisfied: open an empty decision level so the
				// index keeps advancing.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case False:
				return False, nil
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(a, nil)
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return True, nil
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, s.polarity[v]), nil)
	}
}

// varHeap is a max-heap of variables ordered by VSIDS activity.
type varHeap struct {
	s    *Solver
	heap []Var
	pos  []int32 // per var: index in heap, posAbsent or posDerived
}

// Heap positions that are not an index: posAbsent marks a variable that
// insert may add, posDerived one that it never adds (NewDerivedVar).
const (
	posAbsent  int32 = -1
	posDerived int32 = -2
)

func (h *varHeap) less(a, b Var) bool {
	return h.s.activity[a] > h.s.activity[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) ensure(v Var) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, posAbsent)
	}
}

// exclude keeps v out of the heap for good.
func (h *varHeap) exclude(v Var) {
	h.ensure(v)
	h.pos[v] = posDerived
}

func (h *varHeap) insert(v Var) {
	h.ensure(v)
	if h.pos[v] != posAbsent {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v Var) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		h.up(int(h.pos[v]))
	}
}

func (h *varHeap) pop() Var {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[v] = posAbsent
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.down(0)
	}
	return v
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			break
		}
		c := l
		if r := l + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			c = r
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
