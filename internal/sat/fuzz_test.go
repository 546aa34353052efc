package sat

import (
	"strings"
	"testing"
)

// FuzzSolver decodes the fuzz input into a clause set over at most 16
// variables plus an assumption list, solves with a conflict cap, and
// checks the solver's answer: a model must satisfy every clause and
// every assumption, and a second identical run must reproduce the
// verdict and the exact Stats (determinism gate).
//
// Bit 0x40 of the first byte adds derived variables after the ordinary
// ones: 1 + bits 4–5 of that byte of them, 4 more with bit 0x80. Each
// is the AND, OR or XOR of two earlier variables, read from the next two
// bytes, with its Tseitin clauses, and the random clauses and
// assumptions then range over all variables. A model must then assign
// every variable, and a twin solver in which the same variables are
// ordinary must reach the same verdict.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{3, 0x01, 0x12, 0x83, 0x21}, []byte{0x01})
	f.Add([]byte{8, 0x15, 0x9a, 0x3f, 0x70, 0x88, 0x02}, []byte{0x83, 0x04})
	f.Add([]byte{16, 0xff, 0x00, 0x42, 0x51, 0x66, 0x77, 0x38, 0x29}, []byte{})
	f.Add([]byte{1, 0x80, 0x00}, []byte{0x80})
	f.Add([]byte{0x42, 0x04, 0x01, 0x88, 0x04, 0x03, 0x00, 0x84}, []byte{0x03})
	f.Add([]byte{0xf5, 0x10, 0x82, 0x01, 0x03, 0x02, 0x85, 0x19, 0x07, 0x24, 0x01, 0x2a, 0x8b,
		0x0c, 0x04, 0x31, 0x86, 0x09, 0x00, 0x8d, 0x0a, 0x00, 0x0e, 0x8f}, []byte{0x8c, 0x01})
	f.Fuzz(func(t *testing.T, clauseBytes, assumeBytes []byte) {
		if len(clauseBytes) < 2 || len(clauseBytes) > 256 || len(assumeBytes) > 8 {
			return
		}
		nv := 1 + int(clauseBytes[0]%16)
		nd := 0
		if clauseBytes[0]&0x40 != 0 {
			nd = 1 + int(clauseBytes[0]>>4&3)
			if clauseBytes[0]&0x80 != 0 {
				nd += 4
			}
		}
		if len(clauseBytes) < 1+2*nd {
			return
		}
		gates, lits := clauseBytes[1:1+2*nd], clauseBytes[1+2*nd:]
		// Each gate is two bytes: the first picks the operation (mod 3)
		// and, above its low two bits, the first fanin; the second picks
		// the other fanin and, in its top bit, negates it. Each literal
		// byte's low bits pick the variable and its top bit the sign; a
		// zero byte terminates the current clause.
		decode := func(derived bool) (*Solver, [][]Lit, []Lit) {
			s := New()
			vars := mkVars(s, nv)
			var clauses [][]Lit
			add := func(cl ...Lit) {
				clauses = append(clauses, cl)
				s.AddClause(cl...)
			}
			for g := 0; g < nd; g++ {
				a := MkLit(vars[int(gates[2*g]>>2)%len(vars)], false)
				b := MkLit(vars[int(gates[2*g+1]&0x7f)%len(vars)], gates[2*g+1]&0x80 != 0)
				var y Lit
				if derived {
					y = MkLit(s.NewDerivedVar(), false)
				} else {
					y = MkLit(s.NewVar(), false)
				}
				switch gates[2*g] % 3 {
				case 0: // y ↔ a ∧ b
					add(y.Not(), a)
					add(y.Not(), b)
					add(y, a.Not(), b.Not())
				case 1: // y ↔ a ∨ b
					add(y, a.Not())
					add(y, b.Not())
					add(y.Not(), a, b)
				case 2: // y ↔ a ⊕ b
					add(y.Not(), a, b)
					add(y.Not(), a.Not(), b.Not())
					add(y, a.Not(), b)
					add(y, a, b.Not())
				}
				vars = append(vars, y.Var())
			}
			var cur []Lit
			for _, b := range lits {
				if b == 0 {
					if len(cur) > 0 {
						add(cur...)
						cur = nil
					}
					continue
				}
				cur = append(cur, MkLit(vars[int(b&0x7f)%len(vars)], b&0x80 != 0))
			}
			if len(cur) > 0 {
				add(cur...)
			}
			var assumps []Lit
			for _, b := range assumeBytes {
				assumps = append(assumps, MkLit(vars[int(b&0x7f)%len(vars)], b&0x80 != 0))
			}
			return s, clauses, assumps
		}
		solve := func(derived bool) (*Solver, [][]Lit, []Lit, bool, error) {
			s, clauses, assumps := decode(derived)
			s.MaxConflicts = 2000
			ok, err := s.Solve(assumps...)
			return s, clauses, assumps, ok, err
		}
		s, clauses, assumps, ok, err := solve(true)
		if err != nil {
			return // budget exhausted: no verdict to check
		}
		if ok {
			for v := 0; v < s.NumVars(); v++ {
				if s.Value(Var(v)) == Undef {
					t.Fatalf("model leaves v%d unassigned", v)
				}
			}
			for ci, cl := range clauses {
				holds := false
				for _, l := range cl {
					if s.ValueLit(l) == True {
						holds = true
						break
					}
				}
				if !holds {
					t.Fatalf("model violates clause %d", ci)
				}
			}
			for _, a := range assumps {
				if s.ValueLit(a) != True {
					t.Fatalf("model violates assumption %v", a)
				}
			}
		}
		if nd > 0 {
			if _, _, _, twinOK, err := solve(false); err == nil && twinOK != ok {
				t.Fatalf("verdict %v with derived variables, %v with the same variables ordinary", ok, twinOK)
			}
		}
		s2, _, _, ok2, err2 := solve(true)
		if err2 != nil {
			t.Fatalf("second run errored (%v) where first succeeded", err2)
		}
		if ok2 != ok {
			t.Fatalf("verdict flipped across identical runs: %v then %v", ok, ok2)
		}
		if s.Stats() != s2.Stats() {
			t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s.Stats(), s2.Stats())
		}
	})
}

// FuzzParseDIMACS feeds arbitrary text to the DIMACS reader: parsing must
// either fail cleanly or produce a solver whose Solve terminates (the
// instances are tiny, so a full solve is affordable inside the fuzzer).
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 2 2\n1 -2 0\n2 0\n")
	f.Add("c comment\np cnf 1 1\n1 0\n")
	f.Add("1 0")
	f.Add("p cnf 0 0\n")
	f.Add("p cnf 3 1\n1 2 3 0 -1 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		// Cap problem size so hostile inputs cannot allocate wildly.
		if len(src) > 1<<12 || strings.Count(src, "\n") > 256 {
			return
		}
		s, err := parseDIMACS(strings.NewReader(src))
		if err != nil {
			return
		}
		if s.NumVars() > 64 {
			return // avoid huge random instances in the fuzz loop
		}
		s.MaxConflicts = 1000
		_, _ = s.Solve()
	})
}
