package gf2

import (
	"testing"
	"testing/quick"

	"orap/internal/rng"
)

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, true)
	}
	return m
}

// set assigns element (r, c).
func (m *Matrix) set(r, c int, b bool) { m.row[r].SetBit(c, b) }

func randVec(r *rng.Stream, n int) Vec {
	v := NewVec(n)
	for i := 0; i < n; i++ {
		if r.Bool() {
			v.SetBit(i, true)
		}
	}
	return v
}

func randMatrix(r *rng.Stream, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		m.SetRow(i, randVec(r, cols))
	}
	return m
}

func TestVecBitOps(t *testing.T) {
	v := NewVec(130)
	v.SetBit(0, true)
	v.SetBit(64, true)
	v.SetBit(129, true)
	if !v.Bit(0) || !v.Bit(64) || !v.Bit(129) || v.Bit(1) {
		t.Fatal("bit set/get broken across word boundaries")
	}
	if v.Weight() != 3 {
		t.Fatalf("weight = %d, want 3", v.Weight())
	}
	v.FlipBit(64)
	if v.Bit(64) || v.Weight() != 2 {
		t.Fatal("FlipBit broken")
	}
	v.SetBit(0, false)
	if v.Bit(0) {
		t.Fatal("SetBit(false) broken")
	}
}

func TestXorSelfIsZero(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		v := randVec(r, 100)
		w := v.Clone()
		w.Xor(v)
		if !w.IsZero() {
			t.Fatal("v ^ v != 0")
		}
	}
}

func TestDotLinearity(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		a, b, c := randVec(r, 90), randVec(r, 90), randVec(r, 90)
		ab := a.Clone()
		ab.Xor(b)
		// (a+b)·c == a·c + b·c over GF(2)
		if ab.dot(c) != (a.dot(c) != b.dot(c)) {
			t.Fatal("dot product not linear")
		}
	}
}

func TestBoolsRoundTrip(t *testing.T) {
	check := func(bs []bool) bool {
		v := FromBools(bs)
		back := v.Bools()
		if len(back) != len(bs) {
			return false
		}
		for i := range bs {
			if back[i] != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityMulVec(t *testing.T) {
	r := rng.New(3)
	id := identity(77)
	for trial := 0; trial < 10; trial++ {
		v := randVec(r, 77)
		if !id.MulVec(v).Equal(v) {
			t.Fatal("I·v != v")
		}
	}
}

func TestRankIdentity(t *testing.T) {
	if got := identity(50).Rank(); got != 50 {
		t.Fatalf("rank(I50) = %d", got)
	}
}

func TestRankZeroMatrix(t *testing.T) {
	if got := NewMatrix(10, 10).Rank(); got != 0 {
		t.Fatalf("rank(0) = %d", got)
	}
}

func TestRankDuplicateRows(t *testing.T) {
	m := NewMatrix(4, 4)
	row := NewVec(4)
	row.SetBit(0, true)
	row.SetBit(2, true)
	for i := 0; i < 4; i++ {
		m.SetRow(i, row)
	}
	if got := m.Rank(); got != 1 {
		t.Fatalf("rank of 4 identical rows = %d, want 1", got)
	}
}

func TestSolveRoundTrip(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		rows := 10 + r.Intn(40)
		cols := 10 + r.Intn(40)
		m := randMatrix(r, rows, cols)
		xTrue := randVec(r, cols)
		b := m.MulVec(xTrue)
		x, ok := m.Solve(b)
		if !ok {
			t.Fatalf("trial %d: consistent system reported unsolvable", trial)
		}
		if !m.MulVec(x).Equal(b) {
			t.Fatalf("trial %d: returned x does not satisfy M·x=b", trial)
		}
	}
}

func TestSolveDetectsInconsistency(t *testing.T) {
	// Rows: x0 = 0 and x0 = 1 simultaneously.
	m := NewMatrix(2, 1)
	m.set(0, 0, true)
	m.set(1, 0, true)
	b := NewVec(2)
	b.SetBit(1, true) // row0 says x0=0, row1 says x0=1
	if _, ok := m.Solve(b); ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestSolveUnderdetermined(t *testing.T) {
	// One equation, three unknowns: x0 ^ x2 = 1.
	m := NewMatrix(1, 3)
	m.set(0, 0, true)
	m.set(0, 2, true)
	b := NewVec(1)
	b.SetBit(0, true)
	x, ok := m.Solve(b)
	if !ok {
		t.Fatal("underdetermined consistent system reported unsolvable")
	}
	if !m.MulVec(x).Equal(b) {
		t.Fatal("solution does not satisfy the equation")
	}
}

func TestSolveWideAndTall(t *testing.T) {
	r := rng.New(6)
	// Tall system (more equations than unknowns) built from a true solution
	// must remain solvable.
	m := randMatrix(r, 60, 20)
	xTrue := randVec(r, 20)
	b := m.MulVec(xTrue)
	if x, ok := m.Solve(b); !ok || !m.MulVec(x).Equal(b) {
		t.Fatal("tall consistent system failed")
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := identity(5)
	c := m.clone()
	c.set(0, 1, true)
	if m.Row(0).Bit(1) {
		t.Fatal("Clone shares storage")
	}
}

func TestVecStringLSBFirst(t *testing.T) {
	v := NewVec(4)
	v.SetBit(0, true)
	v.SetBit(3, true)
	if got := v.String(); got != "1001" {
		t.Fatalf("String = %q, want 1001", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"Xor": func() { NewVec(3).Xor(NewVec(4)) },
		"Dot": func() { NewVec(3).dot(NewVec(4)) },
		"MulVec": func() {
			NewMatrix(2, 3).MulVec(NewVec(4))
		},
		"SetRow": func() { NewMatrix(2, 3).SetRow(0, NewVec(4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkSolve256(b *testing.B) {
	r := rng.New(7)
	m := randMatrix(r, 256, 512)
	x := randVec(r, 512)
	rhs := m.MulVec(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Solve(rhs); !ok {
			b.Fatal("unsolvable")
		}
	}
}
