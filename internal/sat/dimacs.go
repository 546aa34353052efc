package sat

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDIMACS emits the solver's problem clauses (not learned clauses) in
// DIMACS CNF format, including the level-0 unit facts. Variables are
// numbered 1-based as DIMACS requires.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	nclauses := len(s.clauses)
	// Level-0 assignments become unit clauses.
	var units []Lit
	for _, l := range s.trail {
		if s.level[l.variable()] == 0 {
			units = append(units, l)
		}
	}
	nclauses += len(units)
	if !s.ok {
		nclauses++ // the empty clause
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), nclauses)
	emit := func(lits []Lit) {
		for _, l := range lits {
			v := int(l.variable()) + 1
			if l.neg() {
				v = -v
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, "0")
	}
	for _, u := range units {
		emit([]Lit{u})
	}
	for _, c := range s.clauses {
		emit(s.clauseLits(c))
	}
	if !s.ok {
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}
