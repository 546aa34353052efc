package sat

import (
	"bytes"
	"slices"
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
				vars = append(vars, y.variable())
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
					if s.modelLit(l) == True {
						holds = true
						break
					}
				}
				if !holds {
					t.Fatalf("model violates clause %d", ci)
				}
			}
			for _, a := range assumps {
				if s.modelLit(a) != True {
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

// FuzzMarkRollback decodes base clauses over at most 12 variables and
// marks the solver, with a solve of the base first when bit 0x80 of the
// first byte is set, so the mark keeps learned clauses and level-0
// assignments. Each round of extra bytes, rounds split at 0xff, then
// works on the mark: its first byte adds 0–7 variables, each ordinary or
// (per bit of the second byte) a derived AND of two earlier ones with
// its Tseitin clauses; the remaining bytes are clauses over all
// variables. The solver state must then be consistent, the round's
// solves with and without assumptions must match a fresh solver given
// the base and the round, and the round rolls back. After every rollback the solver must match a twin that
// only ever saw the base clauses: NumVars is back at the mark's value,
// the watch lists, trail and heap are consistent, and under each
// assumption set the verdicts agree and every model satisfies every base
// clause.
func FuzzMarkRollback(f *testing.F) {
	f.Add([]byte{3, 0x01, 0x02, 0, 0x81, 0x03}, []byte{2, 0, 0x04, 0x05, 0, 0x84, 0x85}, []byte{0x01, 0x02, 0, 0x83})
	f.Add([]byte{0x85, 0x01, 0x82, 0x03, 0, 0x81, 0x02, 0, 0x83, 0x04}, []byte{7, 0x55, 0x06, 0x87, 0, 0x08, 0x8a, 0xff, 3, 0, 0x81, 0x86}, []byte{0x81, 0x82})
	f.Add([]byte{11, 0x01, 0x02, 0x03, 0, 0x84, 0x85, 0, 0x86, 0x07}, []byte{0xff, 5, 0xff, 1, 1, 0x8c}, []byte{0x0b, 0, 0x8b, 0, 0x03})
	f.Add([]byte{2, 0x01, 0x02}, []byte{0, 0, 0x01, 0, 0x81}, []byte{}) // the round makes the solver UNSAT
	f.Fuzz(func(t *testing.T, base, extra, assume []byte) {
		if len(base) < 1 || len(base) > 64 || len(extra) > 128 || len(assume) > 16 {
			return
		}
		nv := 1 + int(base[0]&0x7f)%12
		// A literal byte's low bits pick the variable and its top bit the
		// sign; a zero byte ends the current clause or assumption set.
		decode := func(bs []byte, n int) [][]Lit {
			var out [][]Lit
			var cur []Lit
			for _, b := range append(bs, 0) {
				if b != 0 {
					cur = append(cur, MkLit(Var(int(b&0x7f)%n), b&0x80 != 0))
				} else if len(cur) > 0 {
					out, cur = append(out, cur), nil
				}
			}
			return out
		}
		baseClauses := decode(base[1:], nv)
		assumeSets := decode(assume, nv)
		build := func() *Solver {
			s := New()
			mkVars(s, nv)
			for _, cl := range baseClauses {
				s.AddClause(cl...)
			}
			if base[0]&0x80 != 0 {
				s.MaxConflicts = 2000
				_, _ = s.Solve()
			}
			return s
		}
		solve := func(s *Solver, assumps ...Lit) (bool, error) {
			s.MaxConflicts = s.Stats().Conflicts + 2000
			return s.Solve(assumps...)
		}
		s, twin := build(), build()
		cp := s.Mark()
		for _, round := range bytes.Split(extra, []byte{0xff}) {
			round = append(round, 0, 0)
			addRound := func(s *Solver) {
				for i := 0; i < int(round[0]&7); i++ {
					n := s.NumVars()
					if round[1]>>i&1 == 0 {
						s.NewVar()
						continue
					}
					y := MkLit(s.NewDerivedVar(), false)
					a, b := MkLit(Var(i%n), false), MkLit(Var((i+int(round[0]>>3))%n), true)
					s.AddClause(y.Not(), a)
					s.AddClause(y.Not(), b)
					s.AddClause(y, a.Not(), b.Not())
				}
				for _, cl := range decode(round[2:], s.NumVars()) {
					s.AddClause(cl...)
				}
			}
			fresh := build()
			addRound(s)
			addRound(fresh)
			checkState(t, s)
			var assumps []Lit
			for _, set := range assumeSets[:min(len(assumeSets), 1)] {
				for _, l := range set {
					assumps = append(assumps, MkLit(Var((int(l.variable())+len(round))%s.NumVars()), l.neg()))
				}
			}
			for _, a := range [][]Lit{nil, assumps} {
				ok, err := solve(s, a...)
				freshOK, freshErr := solve(fresh, a...)
				if err == nil && freshErr == nil && ok != freshOK {
					t.Fatalf("verdict %v under %v on the mark, %v for a fresh solver with the same clauses", ok, a, freshOK)
				}
			}
			s.Rollback(cp)
			if s.NumVars() != nv {
				t.Fatalf("NumVars %d after Rollback, want the mark's %d", s.NumVars(), nv)
			}
			checkState(t, s)
			for _, assumps := range append(assumeSets, nil) {
				ok, err := solve(s, assumps...)
				twinOK, twinErr := solve(twin, assumps...)
				if err != nil || twinErr != nil {
					continue // budget exhausted: no verdict to compare
				}
				if ok != twinOK {
					t.Fatalf("verdict %v under %v after Rollback, %v for a solver that saw only the base", ok, assumps, twinOK)
				}
				if !ok {
					continue
				}
				for ci, cl := range baseClauses {
					if !slices.ContainsFunc(cl, func(l Lit) bool { return s.modelLit(l) == True }) {
						t.Fatalf("model after Rollback violates base clause %d %v", ci, cl)
					}
				}
				for _, l := range assumps {
					if s.modelLit(l) != True {
						t.Fatalf("model after Rollback violates assumption %v", l)
					}
				}
			}
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
