package atpg

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/cnf"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sat"
)

// xorMiterClass classifies a fault with the encoding the D-chain
// replaced, kept here as the reference: the same good/faulty copies, one
// XOR per influenced output and a clause asking that one of them differ.
// It returns the class and, for a detected fault, the model's pattern.
func xorMiterClass(prog *ir.Program, f faultsim.Fault, opts Options) (Class, []bool, error) {
	s := sat.New()
	s.MaxConflicts = opts.budget()
	enc, err := encodeCopies(s, prog, f)
	if err != nil {
		return 0, nil, err
	}
	var diffs []sat.Lit
	for _, o := range prog.POs {
		if !enc.influenced[o] {
			continue
		}
		d := sat.MkLit(s.NewVar(), false)
		cnf.EmitXor2(s, d, sat.MkLit(enc.good[o], false), sat.MkLit(enc.faulty[o], false))
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...) // empty when no output is influenced: UNSAT
	ok, err := s.Solve()
	switch {
	case err == sat.ErrBudget:
		return Aborted, nil, nil
	case err != nil:
		return 0, nil, err
	case !ok:
		return Redundant, nil, nil
	}
	pattern := make([]bool, len(prog.Inputs))
	for i, id := range prog.Inputs {
		if v := enc.good[id]; v >= 0 {
			pattern[i] = s.Value(v) == sat.True
		}
	}
	return Detected, pattern, nil
}

// design is one circuit the cross-checks run on.
type design struct {
	name string
	c    *netlist.Circuit
}

// tableIIDesigns returns the designs TestPaperTablesGolden pins in
// Table II: each profile at the given scale, original and locked the way
// exp.TableII locks it (weighted, Table I's key size and control width).
func tableIIDesigns(t testing.TB, scale float64, seed uint64, names ...string) []design {
	t.Helper()
	var ds []design
	for _, name := range names {
		prof, err := benchgen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scaled := prof.Scale(scale)
		c, err := benchgen.Generate(scaled, seed)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lock.Weighted(c, lock.WeightedOptions{
			KeyBits:      scaled.LFSRSize,
			ControlWidth: scaled.CtrlInputs,
			Rand:         rng.NewNamed(seed, "tableII/lock/"+name),
		})
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, design{scaled.Name, c}, design{scaled.Name + "-locked", l.Circuit})
	}
	return ds
}

func compileWithSim(t testing.TB, c *netlist.Circuit) (*ir.Program, *faultsim.Simulator) {
	t.Helper()
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := faultsim.ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, sim
}

// TestDChainMatchesXORMiter classifies every collapsed fault of the
// Table II golden designs with both encodings. The classes must agree,
// and every pattern either encoding generates must detect its fault in
// the fault simulator.
func TestDChainMatchesXORMiter(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of serial SAT calls in -short mode")
	}
	for _, d := range tableIIDesigns(t, 0.01, 2020, "s38417", "b20") {
		prog, sim := compileWithSim(t, d.c)
		counts := map[Class]int{}
		for _, f := range faultsim.CollapseFaults(d.c) {
			got, err := generate(prog, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, refPattern, err := xorMiterClass(prog, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Class != want {
				t.Fatalf("%s %v: D-chain says %v, XOR miter says %v", d.name, f, got.Class, want)
			}
			counts[got.Class]++
			for _, p := range [][]bool{got.Pattern, refPattern} {
				if p == nil {
					continue
				}
				hit, err := sim.DetectsWithPattern(f, p)
				if err != nil {
					t.Fatal(err)
				}
				if !hit {
					t.Fatalf("%s %v: pattern %v does not detect the fault", d.name, f, p)
				}
			}
		}
		if counts[Aborted] != 0 || counts[Redundant] == 0 || counts[Detected] == 0 {
			t.Fatalf("%s: classes %v; want detected and redundant faults and no aborts", d.name, counts)
		}
		t.Logf("%s: %d detected, %d redundant", d.name, counts[Detected], counts[Redundant])
	}
}

// TestRedundantMatchesExhaustive checks ATPG's verdicts against
// exhaustive fault simulation on circuits small enough to enumerate: a
// fault is Redundant exactly when none of the 2^n input patterns
// detects it.
func TestRedundantMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive fault simulation in -short mode")
	}
	redundant := 0
	for _, name := range []string{"b17", "b20", "b21", "b22", "s38417"} {
		prof, err := benchgen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := benchgen.Generate(prof.Scale(0.003), 1)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lock.Weighted(c, lock.WeightedOptions{KeyBits: 4, ControlWidth: 3, KeyGates: 4, Rand: rng.NewNamed(1, "exhaustive/"+name)})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []design{{name, c}, {name + "-locked", l.Circuit}} {
			prog, sim := compileWithSim(t, d.c)
			n := len(prog.Inputs)
			if n > 12 {
				t.Fatalf("%s: %d inputs, too many to enumerate", d.name, n)
			}
			faults := faultsim.CollapseFaults(d.c)
			seen := make([]bool, len(faults))
			pattern := make([]bool, n)
			for m := 0; m < 1<<n; m++ {
				for i := range pattern {
					pattern[i] = m>>i&1 == 1
				}
				hit, err := sim.DetectsEach(faults, pattern)
				if err != nil {
					t.Fatal(err)
				}
				for i, h := range hit {
					seen[i] = seen[i] || h
				}
			}
			for i, f := range faults {
				out, err := generate(prog, f, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if out.Class == Aborted || (out.Class == Redundant) == seen[i] {
					t.Errorf("%s %v: ATPG says %v, exhaustive simulation detected=%v", d.name, f, out.Class, seen[i])
				}
				if out.Class == Redundant {
					redundant++
				}
				if out.Class == Detected {
					if hit, err := sim.DetectsWithPattern(f, out.Pattern); err != nil || !hit {
						t.Errorf("%s %v: pattern %v does not detect the fault (%v)", d.name, f, out.Pattern, err)
					}
				}
			}
		}
	}
	if redundant == 0 {
		t.Fatal("no redundant fault among the circuits; the check proved nothing")
	}
	t.Logf("%d redundant verdicts confirmed", redundant)
}
