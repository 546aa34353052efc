package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"orap/internal/rng"
)

func TestParseDIMACSBasic(t *testing.T) {
	src := `c a comment
p cnf 3 3
1 -2 0
2 3 0
-1 0
`
	s, err := parseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	// -1 forces v0=false; 1∨¬2 forces v1=false; 2∨3 forces v2=true.
	if s.Value(0) != False || s.Value(1) != False || s.Value(2) != True {
		t.Fatalf("model wrong: %v %v %v", s.Value(0), s.Value(1), s.Value(2))
	}
}

func TestParseDIMACSUNSAT(t *testing.T) {
	src := "p cnf 1 2\n1 0\n-1 0\n"
	s, err := parseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Solve(); ok {
		t.Fatal("contradictory units reported SAT")
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	for name, src := range map[string]string{
		"bad problem line": "p dnf 2 1\n1 0\n",
		"bad literal":      "p cnf 2 1\n1 x 0\n",
		"trailing clause":  "p cnf 2 1\n1 2\n",
	} {
		if _, err := parseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseDIMACSAllocatesBeyondHeader(t *testing.T) {
	src := "p cnf 1 1\n5 0\n"
	s, err := parseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() < 5 {
		t.Fatalf("vars = %d, want >= 5", s.NumVars())
	}
}

func TestDIMACSRoundTripPreservesSatisfiability(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 40; trial++ {
		s1 := New()
		vars := mkVars(s1, 10)
		for c := 0; c < 30+r.Intn(20); c++ {
			s1.AddClause(
				MkLit(vars[r.Intn(10)], r.Bool()),
				MkLit(vars[r.Intn(10)], r.Bool()),
				MkLit(vars[r.Intn(10)], r.Bool()),
			)
		}
		var b strings.Builder
		if err := s1.WriteDIMACS(&b); err != nil {
			t.Fatal(err)
		}
		s2, err := parseDIMACS(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, b.String())
		}
		ok1, err1 := s1.Solve()
		ok2, err2 := s2.Solve()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ok1 != ok2 {
			t.Fatalf("trial %d: original %v, round trip %v", trial, ok1, ok2)
		}
	}
}

func TestWriteDIMACSIncludesUnits(t *testing.T) {
	s := New()
	v := mkVars(s, 2)
	s.AddClause(MkLit(v[0], false)) // unit: lands on the trail, not the DB
	s.AddClause(MkLit(v[0], true), MkLit(v[1], false))
	var b strings.Builder
	if err := s.WriteDIMACS(&b); err != nil {
		t.Fatal(err)
	}
	s2, err := parseDIMACS(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := s2.Solve()
	if !ok || s2.Value(0) != True || s2.Value(1) != True {
		t.Fatalf("round trip lost unit facts:\n%s", b.String())
	}
}

// parseDIMACS reads a DIMACS CNF problem into a fresh solver. Comment
// lines ("c …") and the problem line ("p cnf V C") are handled; variables
// beyond the declared count are allocated on demand.
func parseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var clause []Lit
	lineno := 0
	ensure := func(v int) Var {
		for s.NumVars() < v {
			s.NewVar()
		}
		return Var(v - 1)
	}
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: dimacs:%d: malformed problem line %q", lineno, line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("sat: dimacs:%d: bad variable count", lineno)
			}
			ensure(nv)
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: dimacs:%d: bad literal %q", lineno, tok)
			}
			if n == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			clause = append(clause, MkLit(ensure(v), n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sat: dimacs read: %w", err)
	}
	if len(clause) != 0 {
		return nil, fmt.Errorf("sat: dimacs: trailing clause without terminating 0")
	}
	return s, nil
}
