// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat/Glucose lineage: two-literal watching with
// blocking literals, a specialized binary-clause watch representation,
// first-UIP conflict analysis with on-the-fly clause minimization, VSIDS
// variable activity, phase saving, Luby restarts and LBD-tiered
// learned-clause reduction. Mark and Rollback let one solver serve a
// sequence of related problems: everything added or learned since a mark
// is deleted again, in time proportional to what is deleted.
//
// Clauses live in one arena, each a header word followed by its
// literals, and are referred to by offset, so watch lists, reasons and
// clause lists hold no pointer for the garbage collector to trace and a
// clause costs no allocation of its own. Values are kept per literal, so
// reading one is a single load. The arena is compacted in creation order
// once evicted learned clauses fill half of it.
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

// variable returns the literal's variable.
func (l Lit) variable() Var { return Var(l >> 1) }

// neg reports whether the literal is negated.
func (l Lit) neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v<n> or ¬v<n>.
func (l Lit) String() string {
	if l.neg() {
		return fmt.Sprintf("~v%d", l.variable())
	}
	return fmt.Sprintf("v%d", l.variable())
}

// LBool is a three-valued boolean.
type LBool int8

// The three truth values.
const (
	False LBool = -1
	Undef LBool = 0
	True  LBool = 1
)

// not returns the logical complement (Undef maps to itself).
func (b LBool) not() LBool { return -b }

// cref refers to a clause by the offset of its header in the solver's
// arena, one []Lit that holds every clause: a header word, size<<1 |
// learned, then the literals, and for a learned clause learntMeta more
// words (see meta), among them its serial, Stats.Learnt when it was
// stored, so Rollback can tell the clauses learned since its mark.
// Watchers, reasons and the clause lists hold offsets, so nothing the
// solver keeps per clause is a pointer.
type cref uint32

// noReason is the reason of a decision, an assumption, a unit and an
// unassigned variable.
const noReason cref = ^cref(0)

// learntMeta is the number of words a learned clause keeps after its
// literals.
const learntMeta = 4

// watcher is the long-clause (≥3 literals) watch entry. The blocking
// literal lets propagation skip the clause without touching its memory
// whenever the blocker is already satisfied.
type watcher struct {
	c       cref
	blocker Lit
}

// binWatch is the specialized binary-clause watch entry: when the watched
// literal is falsified the only possible consequence is `other`, so
// binary propagation reads nothing but the watcher itself. The clause's
// offset is carried only as the reason for conflict analysis.
type binWatch struct {
	other Lit
	c     cref
}

// glueLBD is the LBD at or below which a learned clause is "glue":
// reduceDB never evicts it (Glucose's core tier).
const glueLBD = 2

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena      []Lit        // every clause, in creation order; see cref
	wasted     int          // arena words held by evicted clauses
	clauses    []cref       // problem clauses, by ascending offset
	learnts    []cref       // learned clauses, by ascending offset
	watches    [][]watcher  // indexed by Lit; long clauses only
	binWatches [][]binWatch // indexed by Lit; binary clauses only
	addBuf     []Lit        // AddClause's normalized literals

	vals     []LBool // per literal: its value under the current assignment
	level    []int32
	reason   []cref
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
	model []LBool // per literal, like vals

	// MaxConflicts, when positive, bounds the total conflicts across the
	// solver's lifetime; Solve returns ErrBudget once exceeded.
	MaxConflicts int64

	stats Stats
}

// Checkpoint is a solver state that Rollback returns to.
type Checkpoint struct {
	vars, clauses, trail int
	learnt               int64
	ok                   bool
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
func (s *Solver) NumVars() int { return len(s.level) }

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
	v := Var(s.NumVars())
	s.vals = push(s.vals, Undef, Undef)
	s.level = push(s.level, 0)
	s.reason = push(s.reason, noReason)
	s.polarity = push(s.polarity, true) // default phase: false (neg lit)
	s.activity = push(s.activity, 0)
	s.seen = push(s.seen, false)
	s.watches = growWatches(s.watches)
	s.binWatches = growWatches(s.binWatches)
	s.levelMark = push(s.levelMark, 0)
	s.trail = reserve(s.trail, s.NumVars()) // it holds each variable at most once
	return v
}

// reserve returns a with room for n elements, doubling its capacity
// when it is short. append grows a large slice by about 1.25×, so an
// array grown one variable or clause at a time would be copied about
// five times its final size over its life.
func reserve[T any](a []T, n int) []T {
	if n > cap(a) {
		b := make([]T, len(a), max(2*cap(a), n, 16))
		copy(b, a)
		return b
	}
	return a
}

// push appends xs to a, growing it as reserve does.
func push[T any](a []T, xs ...T) []T { return append(reserve(a, len(a)+len(xs)), xs...) }

// growWatches appends the two empty watch lists of a new variable. Past
// a Rollback, which empties the deleted variables' lists, it reuses
// their storage.
func growWatches[W any](ws [][]W) [][]W {
	if n := len(ws); cap(ws) >= n+2 {
		return ws[:n+2]
	}
	return push(ws, nil, nil)
}

func (s *Solver) valueLit(l Lit) LBool { return s.vals[l] }

// Value returns the value of v in the most recent satisfying model.
func (s *Solver) Value(v Var) LBool {
	if l := int(MkLit(v, false)); l < len(s.model) {
		return s.model[l]
	}
	return Undef
}

// clauseLits returns the literals of clause c, aliasing the arena.
func (s *Solver) clauseLits(c cref) []Lit {
	return s.arena[c+1 : c+1+cref(s.arena[c]>>1)]
}

// learnt reports whether c is a learned clause.
func (s *Solver) learnt(c cref) bool { return s.arena[c]&1 == 1 }

// meta returns the learntMeta words of the learned clause c, each a bit
// pattern: the LBD, the activity (a uint32 count of conflicts it took
// part in) and the serial's low and high halves.
func (s *Solver) meta(c cref) []Lit {
	end := c + 1 + cref(s.arena[c]>>1)
	return s.arena[end : end+learntMeta]
}

func (s *Solver) lbd(c cref) int32 { return int32(s.meta(c)[0]) }

func (s *Solver) serial(c cref) int64 {
	m := s.meta(c)
	return int64(uint32(m[2])) | int64(uint32(m[3]))<<32
}

func (s *Solver) clauseLen(c cref) int { return clauseWords(s.arena[c]) }

// clauseWords returns the arena words of the clause with header h.
func clauseWords(h Lit) int {
	n := 1 + int(h>>1)
	if h&1 == 1 {
		n += learntMeta
	}
	return n
}

// newClause stores a clause over lits in the arena and returns its
// offset; a learned clause starts with activity 1 and the current
// Stats.Learnt as its serial.
func (s *Solver) newClause(lits []Lit, learnt bool, lbd int32) cref {
	c := cref(len(s.arena))
	h := Lit(len(lits)) << 1
	if learnt {
		h |= 1
	}
	n := len(s.arena) + clauseWords(h)
	s.arena = reserve(s.arena, n)[:n]
	s.arena[c] = h
	copy(s.arena[c+1:], lits)
	if learnt {
		m := s.meta(c)
		m[0], m[1] = Lit(lbd), 1
		m[2], m[3] = Lit(uint32(s.stats.Learnt)), Lit(uint32(s.stats.Learnt>>32))
	}
	return c
}

// atRoot panics unless the solver is at decision level 0, i.e. outside
// Solve.
func (s *Solver) atRoot(op string) {
	if len(s.trailLim) != 0 {
		panic("sat: " + op + " called during search")
	}
}

// Mark returns a checkpoint of the clause database for Rollback. Like
// AddClause it must be called outside Solve.
func (s *Solver) Mark() Checkpoint {
	s.atRoot("Mark")
	return Checkpoint{s.NumVars(), len(s.clauses), len(s.trail), s.stats.Learnt, s.ok}
}

// Rollback returns the clause database to its state at c. It deletes
// every variable created, problem clause added and clause learned since
// the mark, detaching each deleted clause from its two watch lists, and
// undoes the level-0 assignments made since. The arena keeps clauses in
// creation order, also across a compaction, so it is truncated at the
// first deleted clause. A clause learned before the mark and evicted
// since stays evicted, which is sound. Activities, saved phases and
// Stats carry over. The time is proportional to what it deletes: the
// per-variable arrays are truncated and keep their capacity. It must be
// called outside Solve, and it invalidates every mark made after c.
func (s *Solver) Rollback(c Checkpoint) {
	s.atRoot("Rollback")
	if c.vars > s.NumVars() || c.clauses > len(s.clauses) || c.trail > len(s.trail) {
		panic("sat: Rollback to a checkpoint the solver does not contain")
	}
	for _, l := range s.trail[c.trail:] {
		v := l.variable()
		s.vals[l], s.vals[l.Not()] = Undef, Undef
		s.reason[v] = noReason
		if int(v) < c.vars {
			s.heap.insert(v)
		}
	}
	s.trail = s.trail[:c.trail]
	s.qhead = c.trail
	// Newest first, so each deleted clause's watchers sit near the end
	// of their lists, where unwatch starts. The learned clauses since the
	// mark are a suffix of learnts, which reduceDB keeps in order.
	cut, live := len(s.arena), 0
	n := len(s.learnts)
	for n > 0 && s.serial(s.learnts[n-1]) > c.learnt {
		n--
		s.detach(s.learnts[n])
		cut, live = int(s.learnts[n]), live+s.clauseLen(s.learnts[n])
	}
	s.learnts = s.learnts[:n]
	for i := len(s.clauses) - 1; i >= c.clauses; i-- {
		s.detach(s.clauses[i])
		cut, live = min(cut, int(s.clauses[i])), live+s.clauseLen(s.clauses[i])
	}
	s.clauses = s.clauses[:c.clauses]
	// Everything past the first deleted clause was created after it; what
	// the deleted clauses do not fill is evicted garbage.
	s.wasted -= len(s.arena) - cut - live
	s.arena = s.arena[:cut]
	for v := c.vars; v < s.NumVars(); v++ {
		s.heap.remove(Var(v))
	}
	s.vals = s.vals[:2*c.vars]
	s.level = s.level[:c.vars]
	s.reason = s.reason[:c.vars]
	s.polarity = s.polarity[:c.vars]
	s.activity = s.activity[:c.vars]
	s.seen = s.seen[:c.vars]
	s.heap.pos = s.heap.pos[:c.vars]
	s.watches = s.watches[:2*c.vars]
	s.binWatches = s.binWatches[:2*c.vars]
	s.levelMark = s.levelMark[:min(len(s.levelMark), c.vars+1)]
	s.model = s.model[:min(len(s.model), 2*c.vars)]
	s.ok = c.ok
}

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state (e.g. after adding an empty
// or immediately conflicting clause).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.atRoot("AddClause")
	// Normalize: sort-unique, drop false lits, detect tautology.
	norm := s.addBuf[:0]
	for _, l := range lits {
		if int(l.variable()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: clause uses unallocated variable %d", l.variable()))
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
	s.addBuf = norm
	switch len(norm) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], noReason)
		s.ok = s.propagate() == noReason
		return s.ok
	}
	c := s.newClause(norm, false, 0)
	s.clauses = push(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c cref) {
	lits := s.clauseLits(c)
	if len(lits) == 2 {
		s.binWatches[lits[0].Not()] = append(s.binWatches[lits[0].Not()], binWatch{lits[1], c})
		s.binWatches[lits[1].Not()] = append(s.binWatches[lits[1].Not()], binWatch{lits[0], c})
		return
	}
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
}

// detach removes c from its two watch lists.
func (s *Solver) detach(c cref) {
	lits := s.clauseLits(c)
	for _, l := range []Lit{lits[0].Not(), lits[1].Not()} {
		if len(lits) == 2 {
			s.binWatches[l] = unwatch(s.binWatches[l], func(w binWatch) bool { return w.c == c })
		} else {
			s.watches[l] = unwatch(s.watches[l], func(w watcher) bool { return w.c == c })
		}
	}
}

// unwatch removes the one entry of ws that is watching reports, searching
// from the newest end, and moves the last entry into its place.
func unwatch[W any](ws []W, watching func(W) bool) []W {
	i := len(ws) - 1
	for !watching(ws[i]) {
		i--
	}
	ws[i] = ws[len(ws)-1]
	return ws[:len(ws)-1]
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.variable()
	s.vals[l], s.vals[l.Not()] = True, False
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation and returns the conflicting clause,
// or noReason when no conflict arises.
func (s *Solver) propagate() cref {
	vals, arena := s.vals, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		// Binary watchers first: the implied literal lives in the watch
		// entry, so this pass never reads the arena.
		for _, w := range s.binWatches[p] {
			switch vals[w.other] {
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
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == True {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			lits := arena[c+1 : c+1+cref(arena[c]>>1)]
			// Ensure the false literal is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == True {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != False {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if vals[first] == False {
				// Copy remaining watchers and stop.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		if j < len(ws) {
			s.watches[p] = ws[:j]
		}
	}
	return noReason
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

func (s *Solver) claBump(c cref) {
	s.meta(c)[1]++
}

// computeLBD returns the literal block distance of the clause: the number
// of distinct non-root decision levels among its literals (Glucose's
// quality measure — low-LBD clauses connect few decision blocks and stay
// useful across restarts).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdStamp++
	var lbd int32
	for _, l := range lits {
		lv := s.level[l.variable()]
		if lv > 0 && s.levelMark[lv] != s.lbdStamp {
			s.levelMark[lv] = s.lbdStamp
			lbd++
		}
	}
	return lbd
}

// analyze performs first-UIP conflict analysis and returns the learned
// clause (with the asserting literal first), the backtrack level and the
// clause's LBD. The clause aliases analyzeBuf until the next conflict.
func (s *Solver) analyze(confl cref) ([]Lit, int, int32) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, 0) // placeholder for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.learnt(confl) {
			s.claBump(confl)
		}
		for _, q := range s.clauseLits(confl) {
			// Skip the asserted literal when walking a reason clause. The
			// positional skip of lits[0] is not valid for binary reasons
			// reached through binWatches, whose literal order is fixed at
			// attach time.
			if p != -1 && q.variable() == p.variable() {
				continue
			}
			v := q.variable()
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
		for !s.seen[s.trail[idx].variable()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.variable()
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
			s.seen[l.variable()] = false
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
			if s.level[learnt[i].variable()] > s.level[learnt[maxI].variable()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].variable()])
	}
	lbd := s.computeLBD(learnt)
	for _, l := range learnt {
		s.seen[l.variable()] = false
	}
	s.analyzeBuf = learnt
	return learnt, btLevel, lbd
}

// redundant reports whether literal l in a learned clause is implied by a
// reason clause whose other literals are all already in the clause or at
// level 0 (one-step minimization).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.variable()]
	if r == noReason {
		return false
	}
	for _, q := range s.clauseLits(r) {
		if q.variable() == l.variable() {
			continue
		}
		if s.level[q.variable()] != 0 && !s.seen[q.variable()] {
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
		l := s.trail[i]
		v := l.variable()
		s.polarity[v] = l.neg() // phase saving
		s.vals[l], s.vals[l.Not()] = Undef, Undef
		s.reason[v] = noReason
		s.heap.insert(v) // a no-op for derived variables
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() Var {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.vals[MkLit(v, false)] == Undef {
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
// more active clause) and the worse half is detached. An evicted
// clause's words become garbage, and the arena is compacted once the
// garbage exceeds half of it.
//
// Learned-clause sets smaller than four are left alone: median-selecting
// on a near-empty candidate slice is meaningless and the clauses are
// cheap to keep.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 4 {
		return
	}
	locked := func(c cref) bool {
		l := s.clauseLits(c)[0]
		return s.vals[l] != Undef && s.reason[l.variable()] == c
	}
	evictable := func(c cref) bool {
		return s.arena[c]>>1 > 2 && s.lbd(c) > glueLBD && !locked(c)
	}
	// Composite rank: LBD dominates, clause activity breaks ties (higher
	// score = better eviction candidate). Activities are conflict counts,
	// far below the tier width, so tiers never interleave.
	score := func(c cref) float64 {
		m := s.meta(c)
		return float64(int32(m[0]))*1e12 - float64(uint32(m[1]))
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
			s.wasted += s.clauseLen(c)
			removed++
		}
	}
	s.learnts = kept
	if removed > 0 {
		s.stats.Reductions++
		s.stats.RemovedClauses += int64(removed)
	}
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

// compact copies the live clauses, in arena order, into a fresh arena
// and relocates the clause lists, the watchers and the reasons. Each
// moved clause's old header holds its new offset while the references
// are rewritten.
func (s *Solver) compact() {
	from := s.arena
	to := make([]Lit, 0, cap(from))
	move := func(c cref) cref {
		n := clauseWords(from[c])
		to = append(to, from[c:int(c)+n]...)
		from[c] = Lit(len(to) - n)
		return cref(from[c])
	}
	// Both lists ascend by offset, so merging them visits the arena in
	// order and keeps creation order, which Rollback relies on.
	i, j := 0, 0
	for i < len(s.clauses) || j < len(s.learnts) {
		if j == len(s.learnts) || i < len(s.clauses) && s.clauses[i] < s.learnts[j] {
			s.clauses[i] = move(s.clauses[i])
			i++
		} else {
			s.learnts[j] = move(s.learnts[j])
			j++
		}
	}
	for l := range s.watches {
		for k := range s.watches[l] {
			s.watches[l][k].c = cref(from[s.watches[l][k].c])
		}
		for k := range s.binWatches[l] {
			s.binWatches[l][k].c = cref(from[s.binWatches[l][k].c])
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.variable()]; r != noReason {
			s.reason[l.variable()] = cref(from[r])
		}
	}
	s.arena, s.wasted = to, 0
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
		s.levelMark = push(s.levelMark, 0)
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
				// The trail holds each assigned variable once.
				if len(s.trail) < s.NumVars() {
					l := slices.Index(s.vals, Undef)
					panic(fmt.Sprintf("sat: derived variable v%d is unassigned in the model", l/2))
				}
				s.model = append(s.model[:0], s.vals...)
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
		if confl != noReason {
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
					s.uncheckedEnqueue(learnt[0], noReason)
				}
			} else {
				c := s.newClause(learnt, true, lbd)
				s.learnts = push(s.learnts, c)
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
			s.uncheckedEnqueue(a, noReason)
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return True, nil
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, s.polarity[v]), noReason)
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
		h.pos = push(h.pos, posAbsent)
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
	h.remove(v)
	return v
}

// remove takes v out of the heap if it is there.
func (h *varHeap) remove(v Var) {
	i := h.pos[v]
	if i < 0 {
		return
	}
	h.pos[v] = posAbsent
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	if int(i) < len(h.heap) {
		h.heap[i] = last
		h.pos[last] = i
		h.down(int(i))
		h.up(int(h.pos[last]))
	}
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
