package sim

import (
	"testing"
	"testing/quick"

	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// c17Reference computes c17's outputs directly from its NAND equations.
func c17Reference(g1, g2, g3, g6, g7 bool) (g22, g23 bool) {
	nand := func(a, b bool) bool { return !(a && b) }
	g10 := nand(g1, g3)
	g11 := nand(g3, g6)
	g16 := nand(g2, g11)
	g19 := nand(g11, g7)
	return nand(g10, g16), nand(g16, g19)
}

func TestEvalC17Exhaustive(t *testing.T) {
	c := circuits.C17()
	for v := 0; v < 32; v++ {
		in := make([]bool, 5)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		out, err := Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		w22, w23 := c17Reference(in[0], in[1], in[2], in[3], in[4])
		if out[0] != w22 || out[1] != w23 {
			t.Fatalf("input %05b: got (%v,%v), want (%v,%v)", v, out[0], out[1], w22, w23)
		}
	}
}

func TestEvalFullAdder(t *testing.T) {
	c := circuits.FullAdder()
	for v := 0; v < 8; v++ {
		a, b, cin := v&1 == 1, v>>1&1 == 1, v>>2&1 == 1
		out, err := Eval(c, []bool{a, b, cin}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := a != b != cin
		n := 0
		for _, x := range []bool{a, b, cin} {
			if x {
				n++
			}
		}
		cout := n >= 2
		if out[0] != sum || out[1] != cout {
			t.Fatalf("a=%v b=%v cin=%v: got (%v,%v), want (%v,%v)", a, b, cin, out[0], out[1], sum, cout)
		}
	}
}

func TestRippleAdderAddsIntegers(t *testing.T) {
	const n = 8
	c := circuits.RippleAdder(n)
	check := func(a, b uint8, cin bool) bool {
		in := make([]bool, 2*n+1)
		for i := 0; i < n; i++ {
			in[i] = a>>uint(i)&1 == 1
			in[n+i] = b>>uint(i)&1 == 1
		}
		in[2*n] = cin
		out, err := Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := uint16(a) + uint16(b)
		if cin {
			want++
		}
		got := uint16(0)
		for i := 0; i < n; i++ {
			if out[i] {
				got |= 1 << uint(i)
			}
		}
		if out[n] {
			got |= 1 << n
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesScalar(t *testing.T) {
	c := circuits.C17()
	p, err := ForProgram(ir.MustCompile(c), 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123)
	p.RandomizeInputs(r)
	p.Run()
	// Cross-check 40 of the 128 patterns against scalar evaluation.
	for pat := 0; pat < 128; pat += 3 {
		in := make([]bool, 5)
		for i, id := range c.PIs {
			in[i] = p.Value(id)[pat/64]>>(uint(pat)%64)&1 == 1
		}
		want, err := Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for oi, id := range c.POs {
			got := p.Value(id)[pat/64]>>(uint(pat)%64)&1 == 1
			if got != want[oi] {
				t.Fatalf("pattern %d output %d: parallel %v, scalar %v", pat, oi, got, want[oi])
			}
		}
	}
}

func TestParallelKeyedCircuit(t *testing.T) {
	c := netlist.New("keyed")
	a, _ := c.AddInput("a")
	k, _ := c.AddKeyInput("keyinput0")
	g := c.MustAddGate(netlist.Xor, "y", a, k)
	c.MarkOutput(g)

	p, err := ForProgram(ir.MustCompile(c), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput(a, []uint64{0x00000000ffffffff})
	if err := p.SetKey([]bool{true}); err != nil {
		t.Fatal(err)
	}
	p.Run()
	if got := p.Value(g)[0]; got != ^uint64(0x00000000ffffffff) {
		t.Fatalf("XOR with key=1 wrong: %016x", got)
	}
	if err := p.SetKey([]bool{false}); err != nil {
		t.Fatal(err)
	}
	p.Run()
	if got := p.Value(g)[0]; got != 0x00000000ffffffff {
		t.Fatalf("XOR with key=0 wrong: %016x", got)
	}
}

func TestSetKeyWidthChecked(t *testing.T) {
	c := circuits.C17()
	p, _ := ForProgram(ir.MustCompile(c), 1)
	if err := p.SetKey([]bool{true}); err == nil {
		t.Fatal("SetKey accepted wrong width")
	}
}

func TestEvalWidthChecked(t *testing.T) {
	c := circuits.C17()
	if _, err := Eval(c, []bool{true}, nil); err == nil {
		t.Fatal("Eval accepted wrong PI width")
	}
	if _, err := Eval(c, make([]bool, 5), []bool{true}); err == nil {
		t.Fatal("Eval accepted wrong key width")
	}
}

func TestConstantsAndInverters(t *testing.T) {
	c := netlist.New("consts")
	a, _ := c.AddInput("a")
	one, _ := c.AddConst(true, "one")
	zero, _ := c.AddConst(false, "zero")
	na := c.MustAddGate(netlist.Not, "na", a)
	buf := c.MustAddGate(netlist.Buf, "buf", na)
	o1 := c.MustAddGate(netlist.And, "o1", buf, one)
	o2 := c.MustAddGate(netlist.Or, "o2", a, zero)
	c.MarkOutput(o1)
	c.MarkOutput(o2)
	out, err := Eval(c, []bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false || out[1] != true {
		t.Fatalf("got (%v,%v), want (false,true)", out[0], out[1])
	}
	out, _ = Eval(c, []bool{false}, nil)
	if out[0] != true || out[1] != false {
		t.Fatalf("got (%v,%v), want (true,false)", out[0], out[1])
	}
}

func TestMultiInputGates(t *testing.T) {
	c := netlist.New("wide")
	var ins []int
	for i := 0; i < 5; i++ {
		id, _ := c.AddInput(string(rune('a' + i)))
		ins = append(ins, id)
	}
	and := c.MustAddGate(netlist.And, "and5", ins...)
	or := c.MustAddGate(netlist.Or, "or5", ins...)
	xor := c.MustAddGate(netlist.Xor, "xor5", ins...)
	for _, id := range []int{and, or, xor} {
		c.MarkOutput(id)
	}
	for v := 0; v < 32; v++ {
		in := make([]bool, 5)
		ones := 0
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
			if in[i] {
				ones++
			}
		}
		out, err := Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != (ones == 5) || out[1] != (ones > 0) || out[2] != (ones%2 == 1) {
			t.Fatalf("v=%05b: and=%v or=%v xor=%v (ones=%d)", v, out[0], out[1], out[2], ones)
		}
	}
}

func TestDiffBits(t *testing.T) {
	a := []uint64{0xff, 0x1}
	b := []uint64{0x0f, 0x0}
	if got := DiffBits(a, b, 128); got != 5 {
		t.Fatalf("DiffBits = %d, want 5", got)
	}
	if got := DiffBits(a, b, 6); got != 2 {
		t.Fatalf("DiffBits over 6 bits = %d, want 2", got)
	}
}

func TestNewParallelRejectsZeroWords(t *testing.T) {
	if _, err := ForProgram(ir.MustCompile(circuits.C17()), 0); err == nil {
		t.Fatal("ForProgram accepted 0 words")
	}
}

func BenchmarkParallelC17(b *testing.B) {
	c := circuits.C17()
	p, _ := ForProgram(ir.MustCompile(c), 16)
	r := rng.New(1)
	p.RandomizeInputs(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run()
	}
}

// TestCloneMatchesOriginal pins what concurrent workers (the
// Hamming-distance blocks) rely on: a second evaluator built on the first
// one's compiled program computes the same values from the same inputs.
func TestCloneMatchesOriginal(t *testing.T) {
	c := circuits.RippleAdder(8)
	p, err := ForProgram(ir.MustCompile(c), 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ForProgram(p.Program(), 4)
	if err != nil {
		t.Fatal(err)
	}
	p.RandomizeInputs(rng.New(55))
	q.RandomizeInputs(rng.New(55))
	p.Run()
	q.Run()
	for _, id := range c.POs {
		pv, qv := p.Value(id), q.Value(id)
		for w := range pv {
			if pv[w] != qv[w] {
				t.Fatalf("evaluators diverged on node %d word %d: %x vs %x", id, w, pv[w], qv[w])
			}
		}
	}
}

// TestCloneIsIndependent checks that two evaluators over one compiled
// program keep private value buffers: writing one's inputs never shows
// through the other.
func TestCloneIsIndependent(t *testing.T) {
	c := circuits.C17()
	p, err := ForProgram(ir.MustCompile(c), 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ForProgram(p.Program(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInputConst(c.PIs[0], true)
	if q.Value(c.PIs[0])[0] != 0 {
		t.Fatal("writing one evaluator's inputs leaked into the other")
	}
}
