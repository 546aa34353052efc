package aig

import (
	"fmt"
	"testing"

	"orap/internal/benchgen"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/sim"
)

// resolutionGraph builds ¬(x∧y) ∧ ¬(x∧¬y), which equals ¬x. The top AND
// goes through raw And: construction cannot see the two-level rule when
// the products were built first.
func resolutionGraph() *AIG {
	g := newAIG()
	x := g.AddPI()
	y := g.AddPI()
	p := g.And(x, y).Not()
	q := g.And(x, y.Not()).Not()
	g.AddPO(g.And(p, q))
	return g
}

func TestRewriteResolutionRule(t *testing.T) {
	// Rewrite must collapse the whole cone.
	r := resolutionGraph().Rewrite()
	ands, _ := r.CountUsed()
	if ands != 0 {
		t.Fatalf("resolution did not collapse: %d used ANDs, want 0 (output = ¬x)", ands)
	}
}

func TestRewritePreservesFunction(t *testing.T) {
	for _, build := range []func() (*AIG, error){
		func() (*AIG, error) { return FromProgram(ir.MustCompile(circuits.C17())) },
		func() (*AIG, error) { return FromProgram(ir.MustCompile(circuits.RippleAdder(5))) },
		func() (*AIG, error) { return FromProgram(ir.MustCompile(circuits.Comparator4())) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		r := g.Rewrite()
		if r.NumPIs() != g.NumPIs() || r.NumPOs() != g.NumPOs() {
			t.Fatal("Rewrite changed the interface")
		}
		// Exhaustive comparison up to 2^11.
		n := g.NumPIs()
		if n > 11 {
			t.Fatalf("test circuit too wide: %d PIs", n)
		}
		for v := 0; v < 1<<uint(n); v++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = v>>uint(i)&1 == 1
			}
			valsG := make([]bool, len(g.nodes))
			for i, pi := range g.pis {
				valsG[pi] = in[i]
			}
			valsR := make([]bool, len(r.nodes))
			for i, pi := range r.pis {
				valsR[pi] = in[i]
			}
			for j := range g.pos {
				if evalLit(g, g.pos[j], valsG) != evalLit(r, r.pos[j], valsR) {
					t.Fatalf("Rewrite changed output %d at input %b", j, v)
				}
			}
		}
	}
}

func TestRewriteNeverGrows(t *testing.T) {
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 3; seed++ {
		c, err := benchgen.Generate(prof.Scale(0.01), seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromProgram(ir.MustCompile(c))
		if err != nil {
			t.Fatal(err)
		}
		before, _ := g.CountUsed()
		r := g.Rewrite()
		after, _ := r.CountUsed()
		if after > before {
			t.Fatalf("seed %d: Rewrite grew the graph %d -> %d", seed, before, after)
		}
	}
}

func TestRewriteIdempotent(t *testing.T) {
	g, err := FromProgram(ir.MustCompile(circuits.RippleAdder(6)))
	if err != nil {
		t.Fatal(err)
	}
	r1 := g.Rewrite()
	r2 := r1.Rewrite()
	a1, _ := r1.CountUsed()
	a2, _ := r2.CountUsed()
	if a2 > a1 {
		t.Fatalf("second Rewrite grew the graph %d -> %d", a1, a2)
	}
}

func TestRewriteRandomCrossCheck(t *testing.T) {
	prof, err := benchgen.ProfileByName("b21")
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchgen.Generate(prof.Scale(0.004), 9)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromProgram(ir.MustCompile(c))
	if err != nil {
		t.Fatal(err)
	}
	r := g.Rewrite()
	rand := rng.New(10)
	in := make([]bool, c.NumInputs())
	for trial := 0; trial < 100; trial++ {
		rand.Bits(in)
		want, err := sim.Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		valsR := make([]bool, len(r.nodes))
		for i, pi := range r.pis {
			valsR[pi] = in[i]
		}
		for j := range r.pos {
			if evalLit(r, r.pos[j], valsR) != want[j] {
				t.Fatalf("trial %d output %d differs from circuit", trial, j)
			}
		}
	}
}

// rewriteDiffers encodes g and r apart over shared PI variables and
// reports whether the SAT miter finds an input on which some output pair
// differs. Strashing r back into g would reuse And's rules on both sides
// and merge every output trivially, so the two graphs stay separate.
func rewriteDiffers(t *testing.T, g, r *AIG) bool {
	t.Helper()
	s := sat.New()
	pi := make([]sat.Var, g.NumPIs())
	for i := range pi {
		pi[i] = s.NewVar()
	}
	a := g.encode(s, pi, g.pos)
	b := r.encode(s, pi, r.pos)
	diff, err := differs(s, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return diff
}

// TestRewriteProvenEquivalent proves by SAT that Rewrite preserves every
// output of the graphs the tests above check by simulation, plus the
// resolution-rule graph. A flipped output must then be refuted, so the
// proof cannot pass vacuously.
func TestRewriteProvenEquivalent(t *testing.T) {
	type named struct {
		name string
		g    *AIG
	}
	graphs := []named{{"resolution", resolutionGraph()}}
	for _, c := range []*netlist.Circuit{circuits.C17(), circuits.RippleAdder(5), circuits.RippleAdder(6), circuits.Comparator4()} {
		graphs = append(graphs, named{c.Name, mustFromProgram(t, c)})
	}
	for _, gen := range []struct {
		prof  string
		scale float64
		seeds []uint64
	}{{"b20", 0.01, []uint64{0, 1, 2}}, {"b21", 0.004, []uint64{9}}} {
		prof, err := benchgen.ProfileByName(gen.prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range gen.seeds {
			c, err := benchgen.Generate(prof.Scale(gen.scale), seed)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, named{fmt.Sprintf("%s/%d", c.Name, seed), mustFromProgram(t, c)})
		}
	}
	for _, n := range graphs {
		r := n.g.Rewrite()
		if rewriteDiffers(t, n.g, r) {
			t.Fatalf("%s: Rewrite changed the function", n.name)
		}
		r.pos[0] = r.pos[0].Not()
		if !rewriteDiffers(t, n.g, r) {
			t.Fatalf("%s: the miter missed a flipped output", n.name)
		}
	}
}

func mustFromProgram(t *testing.T, c *netlist.Circuit) *AIG {
	t.Helper()
	g, err := FromProgram(ir.MustCompile(c))
	if err != nil {
		t.Fatal(err)
	}
	return g
}
