package circuits

import (
	"testing"
	"testing/quick"

	"orap/internal/ir"
	"orap/internal/sim"
)

func TestC17Shape(t *testing.T) {
	c := C17()
	if c.NumInputs() != 5 || c.NumOutputs() != 2 || c.GateCount() != 6 {
		t.Fatalf("c17 shape wrong: %d inputs, %d outputs, %d gates", c.NumInputs(), c.NumOutputs(), c.GateCount())
	}
	if _, err := ir.Compile(c); err != nil {
		t.Fatal(err)
	}
}

func TestFullAdderTruthTable(t *testing.T) {
	c := FullAdder()
	for v := 0; v < 8; v++ {
		a, b, cin := v&1 == 1, v>>1&1 == 1, v>>2&1 == 1
		out, err := sim.Eval(c, []bool{a, b, cin}, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, x := range []bool{a, b, cin} {
			if x {
				n++
			}
		}
		if out[0] != (n%2 == 1) || out[1] != (n >= 2) {
			t.Fatalf("full adder wrong at %03b", v)
		}
	}
}

func TestRippleAdderProperty(t *testing.T) {
	c := RippleAdder(10)
	check := func(a, b uint16, cin bool) bool {
		a &= 0x3ff
		b &= 0x3ff
		in := make([]bool, 21)
		for i := 0; i < 10; i++ {
			in[i] = a>>uint(i)&1 == 1
			in[10+i] = b>>uint(i)&1 == 1
		}
		in[20] = cin
		out, err := sim.Eval(c, in, nil)
		if err != nil {
			return false
		}
		want := uint32(a) + uint32(b)
		if cin {
			want++
		}
		var got uint32
		for i := 0; i <= 10; i++ {
			if out[i] {
				got |= 1 << uint(i)
			}
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParityProperty(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16, 33} {
		c := Parity(n)
		if c.NumOutputs() != 1 {
			t.Fatalf("parity%d has %d outputs", n, c.NumOutputs())
		}
		in := make([]bool, n)
		// All-zero → 0; single one → 1; all ones → n mod 2.
		out, _ := sim.Eval(c, in, nil)
		if out[0] {
			t.Fatalf("parity%d(0…0) = 1", n)
		}
		in[n/2] = true
		out, _ = sim.Eval(c, in, nil)
		if !out[0] {
			t.Fatalf("parity%d(single 1) = 0", n)
		}
		for i := range in {
			in[i] = true
		}
		out, _ = sim.Eval(c, in, nil)
		if out[0] != (n%2 == 1) {
			t.Fatalf("parity%d(all 1) wrong", n)
		}
	}
}

func TestComparator4(t *testing.T) {
	c := Comparator4()
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			in := make([]bool, 8)
			for i := 0; i < 4; i++ {
				in[2*i] = a>>uint(i)&1 == 1
				in[2*i+1] = b>>uint(i)&1 == 1
			}
			out, err := sim.Eval(c, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != (a == b) {
				t.Fatalf("cmp4(%d, %d) = %v", a, b, out[0])
			}
		}
	}
}

func TestMux21(t *testing.T) {
	c := Mux21()
	for v := 0; v < 8; v++ {
		a, b, s := v&1 == 1, v>>1&1 == 1, v>>2&1 == 1
		out, err := sim.Eval(c, []bool{a, b, s}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := a
		if s {
			want = b
		}
		if out[0] != want {
			t.Fatalf("mux(%v,%v,%v) = %v", a, b, s, out[0])
		}
	}
}

func TestParityPanicsBelowTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Parity(1) did not panic")
		}
	}()
	Parity(1)
}
