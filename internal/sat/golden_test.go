package sat

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orap/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats.golden from the current code")

// goldenLine renders one solve: its verdict, a digest of the model when
// satisfiable, and every Stats field.
func goldenLine(name string, s *Solver, ok bool) string {
	model := "-"
	if ok {
		h := fnv.New64a()
		for v := 0; v < s.NumVars(); v++ {
			h.Write([]byte{byte(s.Value(Var(v)))})
		}
		model = fmt.Sprintf("%016x", h.Sum64())
	}
	return fmt.Sprintf("%s sat=%v model=%s %+v\n", name, ok, model, s.Stats())
}

// renderStats solves every DIMACS corpus instance, the pigeonhole
// instance of BenchmarkPigeonhole7, and an incremental sequence that
// reduces the clause database and rolls back to a mark between solves.
func renderStats(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, tc := range corpus {
		s, ok := solveFile(t, filepath.Join("testdata", tc.file))
		b.WriteString(goldenLine(tc.file, s, ok))
	}

	s := New()
	pigeonhole(s, 7)
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(goldenLine("php-8-7", s, ok))

	// A near-threshold random 3-SAT base, then rounds that each mark,
	// add clauses over fresh and base variables, solve under
	// assumptions and roll back; the learned clauses of the base solves
	// and the rounds' reductions carry over the marks.
	r := rng.New(30)
	s = New()
	const nv = 90
	vars := mkVars(s, nv)
	lit := func(vs []Var) Lit { return MkLit(vs[r.Intn(len(vs))], r.Bool()) }
	for i := 0; i < 380; i++ {
		s.AddClause(lit(vars), lit(vars), lit(vars))
	}
	ok, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(goldenLine("incremental base", s, ok))
	for round := 0; round < 6; round++ {
		cp := s.Mark()
		all := append(vars[:nv:nv], mkVars(s, 10)...)
		for i := 0; i < 25; i++ {
			s.AddClause(lit(all), lit(all), lit(all))
		}
		ok, err = s.Solve(lit(vars), lit(vars))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(goldenLine(fmt.Sprintf("incremental round %d", round), s, ok))
		s.Rollback(cp)
		ok, err = s.Solve(lit(vars))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(goldenLine(fmt.Sprintf("incremental rollback %d", round), s, ok))
	}
	return b.String()
}

// TestStatsGolden pins the solver's search: the verdict, model and
// every counter of each instance above. A change to the solver's data
// layout must leave it byte-identical; regenerate with `go test
// ./internal/sat -run StatsGolden -update` only for a change that is
// meant to move the search.
func TestStatsGolden(t *testing.T) {
	got := renderStats(t)
	path := filepath.Join("testdata", "stats.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("solver stats differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
