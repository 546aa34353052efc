package sat

import (
	"slices"
	"strings"
	"testing"

	"orap/internal/rng"
)

// modelLit returns the value of literal l in the most recent model.
func (s *Solver) modelLit(l Lit) LBool {
	v := s.Value(l.variable())
	if l.neg() {
		return v.not()
	}
	return v
}

// mkVars allocates n variables and returns them.
func mkVars(s *Solver, n int) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestTrivialSAT(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(MkLit(v, false))
	ok, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	if s.Value(v) != True {
		t.Fatalf("v = %v, want True", s.Value(v))
	}
}

func TestTrivialUNSAT(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(MkLit(v, false))
	if s.AddClause(MkLit(v, true)) {
		t.Fatal("conflicting units not detected at add time")
	}
	ok, err := s.Solve()
	if err != nil || ok {
		t.Fatalf("Solve = %v, %v; want UNSAT", ok, err)
	}
}

func TestEmptyClauseUNSAT(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
	if ok, _ := s.Solve(); ok {
		t.Fatal("solver SAT after empty clause")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	v := mkVars(s, 2)
	s.AddClause(MkLit(v[0], false), MkLit(v[0], true)) // tautology
	s.AddClause(MkLit(v[1], false))
	ok, _ := s.Solve()
	if !ok {
		t.Fatal("tautology made problem UNSAT")
	}
}

func TestXorChain(t *testing.T) {
	// x0 ^ x1 = 1, x1 ^ x2 = 1, ..., forces alternation; satisfiable.
	s := New()
	const n = 20
	v := mkVars(s, n)
	for i := 0; i+1 < n; i++ {
		a, b := v[i], v[i+1]
		// a != b  ==  (a | b) & (~a | ~b)
		s.AddClause(MkLit(a, false), MkLit(b, false))
		s.AddClause(MkLit(a, true), MkLit(b, true))
	}
	ok, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	for i := 0; i+1 < n; i++ {
		if s.Value(v[i]) == s.Value(v[i+1]) {
			t.Fatalf("model violates x%d != x%d", i, i+1)
		}
	}
}

// pigeonhole encodes n+1 pigeons into n holes; always UNSAT.
func pigeonhole(s *Solver, n int) {
	p := make([][]Var, n+1)
	for i := range p {
		p[i] = mkVars(s, n)
	}
	for i := 0; i <= n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
}

func TestPigeonholeUNSAT(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n)
		ok, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("PHP(%d) reported SAT", n)
		}
	}
}

func TestPigeonholeEqualSAT(t *testing.T) {
	// n pigeons in n holes is satisfiable.
	n := 5
	s := New()
	p := make([][]Var, n)
	for i := range p {
		p[i] = mkVars(s, n)
	}
	for i := 0; i < n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
	if ok, _ := s.Solve(); !ok {
		t.Fatal("PHP(n,n) reported UNSAT")
	}
}

// bruteForce checks satisfiability of a clause set over nv variables.
func bruteForce(nv int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nv); m++ {
		good := true
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.variable())&1 == 1
				if val != l.neg() {
					sat = true
					break
				}
			}
			if !sat {
				good = false
				break
			}
		}
		if good {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	r := rng.New(2024)
	const nv = 12
	for trial := 0; trial < 200; trial++ {
		nc := 20 + r.Intn(50)
		clauses := make([][]Lit, 0, nc)
		s := New()
		vars := mkVars(s, nv)
		addOK := true
		for i := 0; i < nc; i++ {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(vars[r.Intn(nv)], r.Bool())
			}
			clauses = append(clauses, cl)
			if !s.AddClause(cl...) {
				addOK = false
			}
		}
		want := bruteForce(nv, clauses)
		got, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !addOK && got {
			t.Fatalf("trial %d: solver SAT after AddClause signalled UNSAT", trial)
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v (%d clauses)", trial, got, want, nc)
		}
		if got {
			// Verify the model satisfies every clause.
			for ci, cl := range clauses {
				sat := false
				for _, l := range cl {
					if s.modelLit(l) == True {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model violates clause %d", trial, ci)
				}
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	v := mkVars(s, 3)
	// v0 -> v1, v1 -> v2
	s.AddClause(MkLit(v[0], true), MkLit(v[1], false))
	s.AddClause(MkLit(v[1], true), MkLit(v[2], false))
	// ~v2
	s.AddClause(MkLit(v[2], true))

	// Under assumption v0, UNSAT (forces v2).
	ok, err := s.Solve(MkLit(v[0], false))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("assuming v0 should be UNSAT")
	}
	// Without assumptions, SAT.
	ok, err = s.Solve()
	if err != nil || !ok {
		t.Fatalf("unassumed Solve = %v, %v", ok, err)
	}
	// Solver remains reusable: assume ~v0, still SAT.
	ok, err = s.Solve(MkLit(v[0], true))
	if err != nil || !ok {
		t.Fatalf("Solve(~v0) = %v, %v", ok, err)
	}
	if s.Value(v[0]) != False {
		t.Fatal("assumption not honoured in model")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	v := mkVars(s, 4)
	s.AddClause(MkLit(v[0], false), MkLit(v[1], false))
	if ok, _ := s.Solve(); !ok {
		t.Fatal("phase 1 should be SAT")
	}
	s.AddClause(MkLit(v[0], true))
	s.AddClause(MkLit(v[1], true))
	if ok, _ := s.Solve(); ok {
		t.Fatal("phase 2 should be UNSAT")
	}
}

// TestUndefinedDerivedVarPanics declares a derived variable that no
// clause fixes: the search never branches on it, so the model would
// leave it unassigned, and Solve must panic naming it.
func TestUndefinedDerivedVarPanics(t *testing.T) {
	s := New()
	a := s.NewVar()
	d := s.NewDerivedVar()
	s.AddClause(MkLit(a, false))
	var got any
	func() {
		defer func() { got = recover() }()
		_, _ = s.Solve()
	}()
	msg, _ := got.(string)
	if want := "derived variable " + MkLit(d, false).String() + " is unassigned"; !strings.Contains(msg, want) {
		t.Fatalf("Solve panicked with %v, want a message containing %q", got, want)
	}
}

// TestMarkRollback learns, on a mark, a unit and a binary clause over
// the base variables that cut off base models. After the rollback both
// must be gone: the base models are reachable again, and the solver is
// back at the mark's variables, clauses and watch lists.
func TestMarkRollback(t *testing.T) {
	s := New()
	v := mkVars(s, 3)
	a, b, c := MkLit(v[0], false), MkLit(v[1], false), MkLit(v[2], false)
	s.AddClause(a, b, c)
	cp := s.Mark()

	// ¬a ∨ ¬b ∨ x and ¬a ∨ ¬b ∨ ¬x resolve to ¬a ∨ ¬b, which the solver
	// learns refuting the assumptions a, b.
	x := MkLit(s.NewVar(), false)
	s.AddClause(a.Not(), b.Not(), x)
	s.AddClause(a.Not(), b.Not(), x.Not())
	if ok, err := s.Solve(a, b); ok || err != nil {
		t.Fatalf("Solve(a, b) on the mark = %v, %v; want UNSAT", ok, err)
	}
	if len(s.learnts) != 1 || len(s.clauseLits(s.learnts[0])) != 2 {
		t.Fatalf("learned %d clauses on the mark, want the binary ¬a ∨ ¬b", len(s.learnts))
	}
	// c ∨ y and c ∨ ¬y make the solver learn the unit c at level 0.
	y := MkLit(s.NewVar(), false)
	s.AddClause(c, y)
	s.AddClause(c, y.Not())
	if ok, err := s.Solve(c.Not()); ok || err != nil {
		t.Fatalf("Solve(¬c) on the mark = %v, %v; want UNSAT", ok, err)
	}
	if s.Mark().trail == cp.trail {
		t.Fatal("no level-0 assignment made on the mark")
	}

	s.Rollback(cp)
	if s.NumVars() != 3 || len(s.clauses) != 1 || len(s.learnts) != 0 || len(s.trail) != 0 {
		t.Fatalf("after Rollback: %d vars, %d clauses, %d learned, %d assigned; want 3, 1, 0, 0",
			s.NumVars(), len(s.clauses), len(s.learnts), len(s.trail))
	}
	checkState(t, s)
	for _, assume := range [][]Lit{{a, b}, {c.Not()}, {a, b, c.Not()}} {
		if ok, err := s.Solve(assume...); !ok || err != nil {
			t.Fatalf("Solve(%v) after Rollback = %v, %v; want the base model back", assume, ok, err)
		}
		for _, l := range assume {
			if s.modelLit(l) != True {
				t.Fatalf("model after Rollback violates assumption %v", l)
			}
		}
	}
}

// checkState fails unless the solver's internal structures agree at
// decision level 0: every live clause is watched exactly once on each of
// its two watched literals and no deleted clause is watched, the trail
// holds exactly the assigned variables, and every unassigned ordinary
// variable is in the VSIDS heap.
func checkState(t *testing.T, s *Solver) {
	t.Helper()
	seen := map[cref]int{}
	for _, c := range s.clauses {
		seen[c] = 0
	}
	for _, c := range s.learnts {
		seen[c] = 0
	}
	watch := func(l Lit, c cref) {
		n, ok := seen[c]
		if !ok {
			t.Fatalf("watch list of %v holds a clause that is not live", l.Not())
		}
		if lits := s.clauseLits(c); lits[0].Not() != l && lits[1].Not() != l {
			t.Fatalf("watch list of %v holds a clause watching %v and %v", l.Not(), lits[0], lits[1])
		}
		seen[c] = n + 1
	}
	if len(s.watches) != 2*s.NumVars() || len(s.binWatches) != 2*s.NumVars() {
		t.Fatalf("%d/%d watch lists for %d variables", len(s.watches), len(s.binWatches), s.NumVars())
	}
	for l := range s.watches {
		for _, w := range s.watches[l] {
			watch(Lit(l), w.c)
		}
		for _, w := range s.binWatches[l] {
			watch(Lit(l), w.c)
		}
	}
	for c, n := range seen {
		if n != 2 {
			t.Fatalf("clause %v is watched %d times, want 2", s.clauseLits(c), n)
		}
	}
	assigned := 0
	for v := range s.NumVars() {
		switch a := s.vals[MkLit(Var(v), false)]; {
		case a != s.vals[MkLit(Var(v), true)].not():
			t.Fatalf("the two literals of v%d hold %v and %v", v, a, s.vals[MkLit(Var(v), true)])
		case a != Undef:
			assigned++
		case s.heap.pos[v] == posAbsent:
			t.Fatalf("unassigned variable v%d is missing from the heap", v)
		case s.heap.pos[v] >= 0 && s.heap.heap[s.heap.pos[v]] != Var(v):
			t.Fatalf("heap position of v%d is stale", v)
		}
	}
	if assigned != len(s.trail) || s.qhead != len(s.trail) || len(s.heap.pos) != s.NumVars() {
		t.Fatalf("%d assigned, trail %d, qhead %d, heap positions %d for %d variables",
			assigned, len(s.trail), s.qhead, len(s.heap.pos), s.NumVars())
	}
	for _, v := range s.heap.heap {
		if int(v) >= s.NumVars() {
			t.Fatalf("heap holds deleted variable v%d", v)
		}
	}
	words := s.wasted
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for i, c := range list {
			if i > 0 && c <= list[i-1] {
				t.Fatalf("clause list out of arena order at %d: offset %d after %d", i, c, list[i-1])
			}
			words += s.clauseLen(c)
		}
	}
	if words != len(s.arena) {
		t.Fatalf("live clauses and %d garbage words fill %d arena words, arena holds %d", s.wasted, words, len(s.arena))
	}
}

// TestRollbackAfterReduceAndCompact learns clauses before and after a
// mark, the first clause after it a learned one, and adds problem
// clauses after it. Between the mark and its Rollback it evicts learned
// clauses from both sides of the mark, compacts the arena, so the
// deleted clauses have moved, then learns and evicts again without
// compacting, so garbage lies in the part Rollback truncates. The
// rolled-back solver must be consistent, keep no clause learned since
// the mark, and answer like a twin that only saw the base.
func TestRollbackAfterReduceAndCompact(t *testing.T) {
	r := rng.New(5)
	const nv = 60
	var base [][]Lit
	for i := 0; i < 255; i++ {
		base = append(base, []Lit{MkLit(Var(r.Intn(nv)), r.Bool()), MkLit(Var(r.Intn(nv)), r.Bool()), MkLit(Var(r.Intn(nv)), r.Bool())})
	}
	build := func() *Solver {
		s := New()
		mkVars(s, nv)
		for _, cl := range base {
			s.AddClause(cl...)
		}
		if ok, err := s.Solve(); !ok || err != nil {
			t.Fatalf("base Solve = %v, %v; want SAT", ok, err)
		}
		return s
	}
	s, twin := build(), build()
	if len(s.learnts) == 0 {
		t.Fatal("the base solve learned nothing, so no evictable clause precedes the mark")
	}
	cp := s.Mark()
	all := mkVars(s, 12)
	for v := range nv {
		all = append(all, Var(v))
	}
	var assumps [][]Lit
	solve := func() {
		a := []Lit{MkLit(Var(r.Intn(nv)), r.Bool()), MkLit(Var(r.Intn(nv)), r.Bool()), MkLit(Var(r.Intn(nv)), r.Bool())}
		assumps = append(assumps, a)
		s.MaxConflicts = s.Stats().Conflicts + 200
		if _, err := s.Solve(a...); err != nil && err != ErrBudget {
			t.Fatal(err)
		}
	}
	rounds := func(n int) {
		for round := 0; round < n && s.ok; round++ {
			solve()
			for i := 0; i < 3; i++ {
				s.AddClause(MkLit(all[r.Intn(len(all))], r.Bool()), MkLit(all[r.Intn(len(all))], r.Bool()), MkLit(all[r.Intn(len(all))], r.Bool()))
			}
		}
	}
	learntSince := func() bool { return len(s.learnts) > 0 && s.serial(s.learnts[len(s.learnts)-1]) > cp.learnt }
	for tries := 0; !learntSince(); tries++ {
		if tries == 100 {
			t.Fatal("no clause learned under 100 assumption sets")
		}
		solve()
	}
	reduce := func() {
		t.Helper()
		learnt, reductions := len(s.learnts), s.stats.Reductions
		s.reduceDB()
		if s.stats.Reductions == reductions || len(s.learnts) >= learnt {
			t.Fatalf("reduceDB evicted nothing from %d learned clauses", learnt)
		}
		checkState(t, s)
	}
	rounds(40)
	reduce()
	arena := len(s.arena)
	s.compact()
	if s.wasted != 0 || len(s.arena) >= arena {
		t.Fatalf("compaction left %d garbage words, arena %d → %d", s.wasted, arena, len(s.arena))
	}
	checkState(t, s)
	// Clauses added, learned and evicted after the compaction sit behind
	// the moved ones and go too.
	rounds(20)
	reduce()
	if s.wasted == 0 || 2*s.wasted > len(s.arena) {
		t.Fatalf("%d garbage words in an arena of %d, want some but not enough to compact", s.wasted, len(s.arena))
	}

	s.Rollback(cp)
	if s.NumVars() != nv || len(s.clauses) != cp.clauses {
		t.Fatalf("after Rollback: %d vars, %d clauses; want %d, %d", s.NumVars(), len(s.clauses), nv, cp.clauses)
	}
	for _, c := range s.learnts {
		if s.serial(c) > cp.learnt {
			t.Fatalf("clause learned since the mark (serial %d > %d) survived Rollback", s.serial(c), cp.learnt)
		}
	}
	checkState(t, s)
	s.MaxConflicts, twin.MaxConflicts = 0, 0
	for _, a := range append(assumps, nil) {
		ok, err := s.Solve(a...)
		twinOK, twinErr := twin.Solve(a...)
		if err != nil || twinErr != nil {
			t.Fatalf("Solve(%v) errored: %v, twin %v", a, err, twinErr)
		}
		if ok != twinOK {
			t.Fatalf("Solve(%v) = %v after Rollback, %v for a solver that saw only the base", a, ok, twinOK)
		}
		if !ok {
			continue
		}
		for ci, cl := range base {
			if !slices.ContainsFunc(cl, func(l Lit) bool { return s.modelLit(l) == True }) {
				t.Fatalf("model after Rollback violates base clause %d %v", ci, cl)
			}
		}
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 8) // hard enough to exceed a tiny budget
	s.MaxConflicts = 10
	_, err := s.Solve()
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestDuplicateLiteralsInClause(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(MkLit(v, false), MkLit(v, false), MkLit(v, false))
	ok, _ := s.Solve()
	if !ok || s.Value(v) != True {
		t.Fatal("duplicate-literal clause mishandled")
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(7, true)
	if l.variable() != 7 || !l.neg() {
		t.Fatalf("MkLit broken: %v", l)
	}
	if l.Not().neg() || l.Not().variable() != 7 {
		t.Fatalf("Not broken: %v", l.Not())
	}
	if l.String() != "~v7" || l.Not().String() != "v7" {
		t.Fatalf("String broken: %q %q", l.String(), l.Not().String())
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	s := New()
	pigeonhole(s, 5)
	if ok, _ := s.Solve(); ok {
		t.Fatal("PHP(5) SAT?")
	}
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 7)
		if ok, err := s.Solve(); ok || err != nil {
			b.Fatalf("Solve = %v, %v", ok, err)
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		vars := mkVars(s, 100)
		for c := 0; c < 420; c++ {
			s.AddClause(
				MkLit(vars[r.Intn(100)], r.Bool()),
				MkLit(vars[r.Intn(100)], r.Bool()),
				MkLit(vars[r.Intn(100)], r.Bool()),
			)
		}
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
