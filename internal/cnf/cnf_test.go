package cnf

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/sim"
)

// solveWithInputs fixes the PI variables to a pattern and reads back the
// outputs from the model, cross-checking the encoding against simulation.
func solveWithInputs(t *testing.T, c *netlist.Circuit, pattern []bool) []bool {
	t.Helper()
	s := sat.New()
	inst, err := EncodeProgram(s, ir.MustCompile(c), Options{FixedPIs: pattern})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	out := make([]bool, len(inst.POVars))
	for i, v := range inst.POVars {
		out[i] = s.Value(v) == sat.True
	}
	return out
}

func TestEncodeMatchesSimulationC17(t *testing.T) {
	c := circuits.C17()
	for v := 0; v < 32; v++ {
		in := make([]bool, 5)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		want, err := sim.Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := solveWithInputs(t, c, in)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("input %05b output %d: CNF %v, sim %v", v, j, got[j], want[j])
			}
		}
	}
}

func TestEncodeMatchesSimulationAllGateTypes(t *testing.T) {
	c := netlist.New("allgates")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	d, _ := c.AddInput("d")
	one, _ := c.AddConst(true, "one")
	zero, _ := c.AddConst(false, "zero")
	nodes := []int{
		c.MustAddGate(netlist.And, "and", a, b, d),
		c.MustAddGate(netlist.Nand, "nand", a, b, d),
		c.MustAddGate(netlist.Or, "or", a, b, d),
		c.MustAddGate(netlist.Nor, "nor", a, b, d),
		c.MustAddGate(netlist.Xor, "xor", a, b, d),
		c.MustAddGate(netlist.Xnor, "xnor", a, b, d),
		c.MustAddGate(netlist.Not, "not", a),
		c.MustAddGate(netlist.Buf, "buf", b),
		c.MustAddGate(netlist.And, "withconst", one, a),
		c.MustAddGate(netlist.Or, "withzero", zero, b),
	}
	for _, n := range nodes {
		c.MarkOutput(n)
	}
	for v := 0; v < 8; v++ {
		in := []bool{v&1 == 1, v>>1&1 == 1, v>>2&1 == 1}
		want, err := sim.Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := solveWithInputs(t, c, in)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("input %03b output %d (%s): CNF %v, sim %v", v, j, c.NameOf(c.POs[j]), got[j], want[j])
			}
		}
	}
}

func TestEncodeSharedVariables(t *testing.T) {
	c := circuits.C17()
	s := sat.New()
	a, err := EncodeProgram(s, ir.MustCompile(c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeProgram(s, ir.MustCompile(c), Options{PIVars: a.PIVars})
	if err != nil {
		t.Fatal(err)
	}
	// Same inputs → outputs must always match: disequality is UNSAT.
	diffs := make([]sat.Lit, 0, 2)
	for i := range a.POVars {
		d := sat.MkLit(s.NewVar(), false)
		EmitXor2(s, d, sat.MkLit(a.POVars[i], false), sat.MkLit(b.POVars[i], false))
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...)
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("two copies sharing inputs produced different outputs")
	}
}

func TestEncodeOptionValidation(t *testing.T) {
	c := circuits.C17()
	s := sat.New()
	if _, err := EncodeProgram(s, ir.MustCompile(c), Options{PIVars: make([]sat.Var, 2)}); err == nil {
		t.Error("wrong PIVars width accepted")
	}
	if _, err := EncodeProgram(s, ir.MustCompile(c), Options{FixedPIs: make([]bool, 2)}); err == nil {
		t.Error("wrong FixedPIs width accepted")
	}
	if _, err := EncodeProgram(s, ir.MustCompile(c), Options{KeyVars: make([]sat.Var, 1)}); err == nil {
		t.Error("wrong KeyVars width accepted")
	}
}

func TestMiterRequiresKeys(t *testing.T) {
	s := sat.New()
	if _, err := NewMiter(s, circuits.C17()); err == nil {
		t.Fatal("miter over unkeyed circuit accepted")
	}
}

func TestMiterFindsDistinguishingInput(t *testing.T) {
	r := rng.New(1)
	l, err := lock.RandomXOR(circuits.C17(), 3, r)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	m, err := NewMiter(s, l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve(m.AssumeDiff())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no DIP found for a randomly locked c17")
	}
	// The model must truly be a DIP: simulate both extracted keys.
	x := m.ExtractInputs()
	k1 := m.ExtractKey1()
	k2 := extract(s, m.Key2)
	o1, _ := sim.Eval(l.Circuit, x, k1)
	o2, _ := sim.Eval(l.Circuit, x, k2)
	same := true
	for i := range o1 {
		if o1[i] != o2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("extracted DIP does not distinguish the extracted keys")
	}
}

func TestMiterIOConstraintNarrowsKeys(t *testing.T) {
	r := rng.New(2)
	orig := circuits.C17()
	l, err := lock.RandomXOR(orig, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	m, err := NewMiter(s, l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	// Feed every input pattern's correct response; afterwards the miter
	// must be UNSAT and key extraction must yield a correct key.
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		y, err := sim.Eval(orig, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddIOConstraint(x, y); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := s.Solve(m.AssumeDiff())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("DIP still exists after constraining all 32 patterns")
	}
	ok, err = s.Solve(m.AssumeNoDiff())
	if err != nil || !ok {
		t.Fatalf("key extraction Solve = %v, %v", ok, err)
	}
	key := m.ExtractKey1()
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, x, nil)
		got, _ := sim.Eval(l.Circuit, x, key)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("extracted key wrong on input %05b", v)
			}
		}
	}
}

func TestConstrainBitsLengthChecked(t *testing.T) {
	s := sat.New()
	v := s.NewVar()
	if err := ConstrainBits(s, []sat.Var{v}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEncodeMatchesSimulationRandomCircuits(t *testing.T) {
	// Cross-check the Tseitin encoding against the simulator on generated
	// random-logic circuits: for random input patterns, fixing the PIs in
	// CNF must force exactly the simulated outputs.
	r := rng.New(77)
	for trial := 0; trial < 5; trial++ {
		prof, err := benchgen.ProfileByName("b20")
		if err != nil {
			t.Fatal(err)
		}
		c, err := benchgen.Generate(prof.Scale(0.002), uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		in := make([]bool, c.NumInputs())
		for pat := 0; pat < 4; pat++ {
			r.Bits(in)
			want, err := sim.Eval(c, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := sat.New()
			inst, err := EncodeProgram(s, ir.MustCompile(c), Options{FixedPIs: in})
			if err != nil {
				t.Fatal(err)
			}
			ok, err := s.Solve()
			if err != nil || !ok {
				t.Fatalf("trial %d pattern %d: Solve = %v, %v", trial, pat, ok, err)
			}
			for j, v := range inst.POVars {
				if (s.Value(v) == sat.True) != want[j] {
					t.Fatalf("trial %d pattern %d output %d: CNF disagrees with simulation", trial, pat, j)
				}
			}
		}
	}
}

func BenchmarkEncodeB20Slice(b *testing.B) {
	prof, _ := benchgen.ProfileByName("b20")
	c, err := benchgen.Generate(prof.Scale(0.05), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		if _, err := EncodeProgram(s, ir.MustCompile(c), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
