package atpg

import (
	"fmt"
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

// This file keeps two references for the campaign's encoding: generate,
// which classifies each fault on a fresh solver of its own, and
// xorMiterClass, the XOR output miter the D-chain replaced.

// generate classifies one fault on a fresh solver that holds only the
// fault's good and faulty cone copies and its D-chain, with d_site as a
// unit clause.
func generate(prog *ir.Program, f faultsim.Fault, opts Options) (Outcome, error) {
	s := sat.New()
	s.MaxConflicts = opts.budget()

	enc, err := encodeFaultCone(s, prog, f)
	if err != nil {
		return Outcome{}, err
	}
	ok, err := s.Solve()
	if err == sat.ErrBudget {
		return Outcome{Fault: f, Class: Aborted}, nil
	}
	if err != nil {
		return Outcome{}, err
	}
	if !ok {
		return Outcome{Fault: f, Class: Redundant}, nil
	}
	pattern := make([]bool, len(prog.Inputs))
	for i, id := range prog.Inputs {
		if v := enc.good[id]; v >= 0 {
			pattern[i] = s.Value(v) == sat.True
		}
		// Inputs outside the cone stay false; any value works.
	}
	return Outcome{Fault: f, Class: Detected, Pattern: pattern}, nil
}

// coneEncoding carries the variable maps of the restricted good/faulty
// encoding.
type coneEncoding struct {
	// good and faulty map each node of the cone to its variable in the
	// good and the faulty copy (-1 outside the cone). The copies share
	// one variable outside the influenced region.
	good, faulty []sat.Var
	// influenced marks the fault node's transitive fanout.
	influenced []bool
}

// encodeFaultCone encodes the fault's good/faulty copies (encodeCopies)
// and the D-chain of campaign.target, with the unit d_site asserting
// that the fault effect travels from the fault site to an output. A
// fault with no output in its fanout is refuted by unit propagation
// alone.
func encodeFaultCone(s *sat.Solver, prog *ir.Program, f faultsim.Fault) (*coneEncoding, error) {
	enc, err := encodeCopies(s, prog, f)
	if err != nil {
		return nil, err
	}
	isPO := make([]bool, prog.NumNodes())
	for _, o := range prog.POs {
		isPO[o] = true
	}
	d := make([]sat.Lit, prog.NumNodes())
	for id, in := range enc.influenced {
		if in {
			d[id] = sat.MkLit(s.NewVar(), false)
		}
	}
	var next []sat.Lit
	for id, in := range enc.influenced {
		if !in {
			continue
		}
		g, fv := sat.MkLit(enc.good[id], false), sat.MkLit(enc.faulty[id], false)
		s.AddClause(d[id].Not(), g, fv)
		s.AddClause(d[id].Not(), g.Not(), fv.Not())
		if isPO[id] {
			continue
		}
		next = append(next[:0], d[id].Not())
		for _, fo := range prog.FanoutSpan(id) {
			next = append(next, d[fo])
		}
		s.AddClause(next...)
	}
	s.AddClause(d[f.Node])
	return enc, nil
}

// encodeCopies adds CNF for the good and faulty circuit restricted to the
// union of the fault's output cone and that cone's input support, sharing
// input variables. It asserts nothing about the outputs.
func encodeCopies(s *sat.Solver, prog *ir.Program, f faultsim.Fault) (*coneEncoding, error) {
	if f.Node < 0 || f.Node >= prog.NumNodes() {
		return nil, fmt.Errorf("atpg: fault node %d out of range", f.Node)
	}
	// Influence region: transitive fanout of the fault node; support:
	// transitive fanin of that region.
	influenced := prog.TransitiveFanout(f.Node)
	need := make([]bool, prog.NumNodes())
	stack := []int{}
	for id := range influenced {
		if influenced[id] {
			need[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range prog.FaninSpan(id) {
			if !need[fi] {
				need[fi] = true
				stack = append(stack, int(fi))
			}
		}
	}

	goodVar := make([]sat.Var, prog.NumNodes())
	faultVar := make([]sat.Var, prog.NumNodes())
	for i := range goodVar {
		goodVar[i] = -1
		faultVar[i] = -1
	}
	enc := &coneEncoding{good: goodVar, faulty: faultVar, influenced: influenced}

	lits := func(vars []sat.Var, ids []int32) []sat.Lit {
		ls := make([]sat.Lit, len(ids))
		for i, id := range ids {
			ls[i] = sat.MkLit(vars[id], false)
		}
		return ls
	}

	for _, id32 := range prog.Order {
		id := int(id32)
		if !need[id] {
			continue
		}
		op := prog.Ops[id]
		fanin := prog.FaninSpan(id)
		// Good copy.
		gv := s.NewVar()
		goodVar[id] = gv
		if op != ir.OpInput {
			if err := cnf.EmitGate(s, op, sat.MkLit(gv, false), lits(goodVar, fanin)); err != nil {
				return nil, err
			}
		}
		// Faulty copy: nodes outside the influenced region share the
		// good variable; influenced nodes get their own, with the fault
		// injected at the fault site.
		if !influenced[id] {
			faultVar[id] = gv
			continue
		}
		fv := s.NewVar()
		faultVar[id] = fv
		switch {
		case id == f.Node && f.Pin < 0:
			// Output fault: the node is a constant.
			s.AddClause(sat.MkLit(fv, !f.SA1))
		case op == ir.OpInput:
			// An influenced input can only be the fault node itself
			// (inputs have no fanin); constrain equal to good.
			s.AddClause(sat.MkLit(fv, true), sat.MkLit(gv, false))
			s.AddClause(sat.MkLit(fv, false), sat.MkLit(gv, true))
		default:
			fan := lits(faultVar, fanin)
			if id == f.Node && f.Pin >= 0 {
				// Input-pin fault: replace that pin with a constant.
				cv := s.NewVar()
				s.AddClause(sat.MkLit(cv, !f.SA1))
				fan[f.Pin] = sat.MkLit(cv, false)
			}
			if err := cnf.EmitGate(s, op, sat.MkLit(fv, false), fan); err != nil {
				return nil, err
			}
		}
	}
	return enc, nil
}

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

// TestCampaignMatchesPerFault runs one campaign over every collapsed
// fault of the Table II golden designs, in list order, so most faults
// run on a solver that has rolled others back. Each class must equal the
// per-fault reference's, and each campaign pattern must detect its fault
// in the fault simulator.
func TestCampaignMatchesPerFault(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of serial SAT calls in -short mode")
	}
	for _, d := range tableIIDesigns(t, 0.01, 2020, "s38417", "b20") {
		prog, sim := compileWithSim(t, d.c)
		cam := newCampaign(prog, Options{})
		counts := map[Class]int{}
		for _, f := range faultsim.CollapseFaults(d.c) {
			got, err := cam.target(f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := generate(prog, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Class != want.Class {
				t.Fatalf("%s %v: campaign says %v, per-fault solver says %v", d.name, f, got.Class, want.Class)
			}
			counts[got.Class]++
			if got.Class != Detected {
				continue
			}
			if hit, err := sim.DetectsWithPattern(f, got.Pattern); err != nil || !hit {
				t.Fatalf("%s %v: campaign pattern %v does not detect the fault (%v)", d.name, f, got.Pattern, err)
			}
		}
		if counts[Aborted] != 0 || counts[Redundant] == 0 || counts[Detected] == 0 {
			t.Fatalf("%s: classes %v; want detected and redundant faults and no aborts", d.name, counts)
		}
		t.Logf("%s: %d detected, %d redundant, %d solver variables at the end", d.name, counts[Detected], counts[Redundant], cam.s.NumVars())
	}
}

// TestRedundantMatchesExhaustive checks the campaign's verdicts, one
// campaign per circuit, against exhaustive fault simulation on circuits
// small enough to enumerate: a fault is Redundant exactly when none of
// the 2^n input patterns detects it.
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
			cam := newCampaign(prog, Options{})
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
				out, err := cam.target(f)
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
