package sat

import (
	"strings"
	"testing"

	"orap/internal/rng"
)

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
				val := m>>uint(l.Var())&1 == 1
				if val != l.Neg() {
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
					if s.ValueLit(l) == True {
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
	if l.Var() != 7 || !l.Neg() {
		t.Fatalf("MkLit broken: %v", l)
	}
	if l.Not().Neg() || l.Not().Var() != 7 {
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
