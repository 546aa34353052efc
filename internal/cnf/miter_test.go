package cnf

import (
	"slices"
	"testing"

	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sat"
)

// referenceIOConstraint records an observation the way a miter without
// any cone sharing does: one full Tseitin copy of the locked circuit per
// key vector, its inputs fixed to x, its key bound to the key vector and
// every output fixed to y.
func referenceIOConstraint(t *testing.T, m *Miter, x, y []bool) {
	t.Helper()
	for _, keys := range [][]sat.Var{m.Key1, m.Key2} {
		inst, err := EncodeProgram(m.S, m.Prog, Options{KeyVars: keys})
		if err != nil {
			t.Fatal(err)
		}
		if err := ConstrainBits(m.S, inst.PIVars, x); err != nil {
			t.Fatal(err)
		}
		if err := ConstrainBits(m.S, inst.POVars, y); err != nil {
			t.Fatal(err)
		}
	}
}

// xorAux returns the auxiliary variables EmitGate allocates for op over n
// fanins.
func xorAux(op ir.Op, n int) int {
	if op == ir.OpXor || op == ir.OpXnor {
		return max(n-2, 0)
	}
	return 0
}

// TestSharedKeyOnlyCone runs the SAT attack's loop on the miters of an
// 8-bit SARLock and a 16-bit weighted lock of b20@0.012 (benchgen seeds
// 1–3). Beside each miter it keeps a twin whose observations are
// recorded by referenceIOConstraint, fed the same observations. After
// every observation:
//   - no IO copy allocated a variable for a key-only gate, and each
//     key-only gate reads the variable addConePair gave it for its key
//     vector;
//   - the two formulas agree on whether a DIP is left;
//   - both keys of every DIP the miter returns reproduce every recorded
//     response under IR simulation.
//
// Then a consistent observation keeps both formulas satisfiable under
// AssumeNoDiff and a contradicting one makes both unsatisfiable. Under
// -short only seed 1 runs.
func TestSharedKeyOnlyCone(t *testing.T) {
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []struct {
		name string
		lock func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error)
	}{
		{"sarlock8", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 8, r) }},
		{"weighted16", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
			return lock.Weighted(c, lock.WeightedOptions{KeyBits: 16, ControlWidth: 3, KeyGates: 16, Rand: r})
		}},
	}
	for _, sc := range schemes {
		for seed := uint64(1); seed <= seeds; seed++ {
			c, err := benchgen.Generate(prof.Scale(0.012), seed)
			if err != nil {
				t.Fatal(err)
			}
			l, err := sc.lock(c, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			orig := ir.MustCompile(c)
			s, ref := sat.New(), sat.New()
			m, err := NewMiter(s, l.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := NewMiter(ref, l.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			info := m.coi
			shared, perCopy := 0, 0
			for i, id := range info.gates {
				switch {
				case info.keyOnly[i]:
					shared++
					if m.keyOnly1[i] < 0 || m.keyOnly2[i] < 0 {
						t.Fatalf("%s seed %d: key-only gate %d has no variable after NewMiter", sc.name, seed, id)
					}
				case m.keyOnly1[i] >= 0 || m.keyOnly2[i] >= 0:
					t.Fatalf("%s seed %d: gate %d is not key-only but holds a shared variable", sc.name, seed, id)
				default:
					perCopy += 1 + xorAux(m.Prog.Ops[id], len(m.Prog.FaninSpan(int(id))))
				}
			}
			if shared == 0 {
				t.Fatalf("%s seed %d: no key-only gate among the %d cone gates", sc.name, seed, len(info.gates))
			}
			t.Logf("%s seed %d: %d of %d cone gates are key-only", sc.name, seed, shared, len(info.gates))
			ko1, ko2 := slices.Clone(m.keyOnly1), slices.Clone(m.keyOnly2)
			pairVars := sat.Var(s.NumVars())

			var xs, ys [][]bool
			for iter := 0; ; iter++ {
				ok, err := s.Solve(m.AssumeDiff())
				if err != nil {
					t.Fatal(err)
				}
				refOK, err := ref.Solve(rm.AssumeDiff())
				if err != nil {
					t.Fatal(err)
				}
				if ok != refOK {
					t.Fatalf("%s seed %d after %d observations: DIP left %v, %v for the unshared reference", sc.name, seed, iter, ok, refOK)
				}
				if !ok {
					break
				}
				k1, k2 := m.ExtractKey1(), extract(s, m.Key2)
				for j := range xs {
					for _, k := range [][]bool{k1, k2} {
						got, err := m.Prog.Eval(xs[j], k)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, ys[j]) {
							t.Fatalf("%s seed %d: a key of DIP %d contradicts observation %d", sc.name, seed, iter, j)
						}
					}
				}
				x := m.ExtractInputs()
				y, err := orig.Eval(x, nil)
				if err != nil {
					t.Fatal(err)
				}
				xs, ys = append(xs, x), append(ys, y)
				before := s.NumVars()
				if err := m.AddIOConstraint(x, y); err != nil {
					t.Fatal(err)
				}
				referenceIOConstraint(t, rm, x, y)
				if iter == 0 {
					before++ // the folding constant
				}
				if got := s.NumVars() - before; got != 2*perCopy {
					t.Fatalf("%s seed %d: an observation allocated %d variables, want %d for the gates that are not key-only", sc.name, seed, got, 2*perCopy)
				}
				if !slices.Equal(m.keyOnly1, ko1) || !slices.Equal(m.keyOnly2, ko2) {
					t.Fatalf("%s seed %d: an observation redefined a key-only gate", sc.name, seed)
				}
				for i, id := range info.gates {
					if v := m.copyVar[id]; info.keyOnly[i] && (v != ko2[i] || v >= pairVars) {
						t.Fatalf("%s seed %d: key-only gate %d reads v%d in the Key2 copy, want addConePair's v%d", sc.name, seed, id, v, ko2[i])
					}
				}
				if iter > 1<<10 {
					t.Fatalf("%s seed %d: no convergence after %d DIPs", sc.name, seed, iter)
				}
			}

			r := rng.New(seed)
			x := make([]bool, m.Prog.NumInputs())
			r.Bits(x)
			y, err := orig.Eval(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, flip := range []bool{false, true} {
				if flip {
					y[m.coi.keyPOIdx[0]] = !y[m.coi.keyPOIdx[0]]
				}
				if err := m.AddIOConstraint(x, y); err != nil {
					t.Fatal(err)
				}
				referenceIOConstraint(t, rm, x, y)
				ok, err := s.Solve(m.AssumeNoDiff())
				if err != nil {
					t.Fatal(err)
				}
				refOK, err := ref.Solve(rm.AssumeNoDiff())
				if err != nil {
					t.Fatal(err)
				}
				if ok != !flip || refOK != !flip {
					t.Fatalf("%s seed %d: consistent key %v, %v for the reference, after a %s observation", sc.name, seed, ok, refOK, map[bool]string{false: "consistent", true: "contradicting"}[flip])
				}
			}
		}
	}
}
