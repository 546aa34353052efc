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
// 8-bit SARLock, a 16-bit weighted lock, an 8-bit Anti-SAT lock, an 8-bit
// TTLock and a 16-bit random XOR lock of b20@0.012 (benchgen seeds 1–3).
// Beside each miter it keeps a twin whose observations are recorded by
// referenceIOConstraint, fed the same observations. After every
// observation:
//   - it allocated at most one variable per gate that is not key-only
//     (plus xorChain's auxiliaries), since folded, aliased and hashed
//     gates take none, and recording it again allocates none;
//   - each key-only gate reads the literal addConePair gave it for its
//     key vector;
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
		// keyOnly marks the schemes whose cone has key-only gates.
		keyOnly bool
	}{
		{"sarlock8", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 8, r) }, true},
		{"weighted16", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
			return lock.Weighted(c, lock.WeightedOptions{KeyBits: 16, ControlWidth: 3, KeyGates: 16, Rand: r})
		}, true},
		{"antisat8", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 4, r) }, false},
		{"ttlock8", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.TTLock(c, 8, r) }, false},
		{"randomxor16", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 16, r) }, false},
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
					if m.keyOnly1[i] == noLit || m.keyOnly2[i] == noLit {
						t.Fatalf("%s seed %d: key-only gate %d has no literal after NewMiter", sc.name, seed, id)
					}
				case m.keyOnly1[i] != noLit || m.keyOnly2[i] != noLit:
					t.Fatalf("%s seed %d: gate %d is not key-only but holds a shared literal", sc.name, seed, id)
				default:
					perCopy += 1 + xorAux(m.Prog.Ops[id], len(m.Prog.FaninSpan(int(id))))
				}
			}
			if sc.keyOnly && shared == 0 {
				t.Fatalf("%s seed %d: no key-only gate among the %d cone gates", sc.name, seed, len(info.gates))
			}
			t.Logf("%s seed %d: %d of %d cone gates are key-only", sc.name, seed, shared, len(info.gates))
			ko1, ko2 := slices.Clone(m.keyOnly1), slices.Clone(m.keyOnly2)

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
				if got := s.NumVars() - before; got > 2*perCopy {
					t.Fatalf("%s seed %d: an observation allocated %d variables, want at most %d for the gates that are not key-only", sc.name, seed, got, 2*perCopy)
				}
				if !slices.Equal(m.keyOnly1, ko1) || !slices.Equal(m.keyOnly2, ko2) {
					t.Fatalf("%s seed %d: an observation redefined a key-only gate", sc.name, seed)
				}
				for i, id := range info.gates {
					if l := m.lits[id]; info.keyOnly[i] && l != ko2[i] {
						t.Fatalf("%s seed %d: key-only gate %d reads %v in the Key2 copy, want addConePair's %v", sc.name, seed, id, l, ko2[i])
					}
				}
				before = s.NumVars()
				if err := m.AddIOConstraint(x, y); err != nil {
					t.Fatal(err)
				}
				if got := s.NumVars() - before; got != 0 {
					t.Fatalf("%s seed %d: recording an observation again allocated %d variables", sc.name, seed, got)
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
