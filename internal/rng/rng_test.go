package rng

import (
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at draw %d: %x vs %x", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestNamedStreamsIndependent(t *testing.T) {
	a := NewNamed(7, "tableI")
	b := NewNamed(7, "tableII")
	c := NewNamed(7, "tableI")
	av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
	if av == bv {
		t.Fatalf("differently named streams produced identical first draw %x", av)
	}
	if av != cv {
		t.Fatalf("same-named streams diverged: %x vs %x", av, cv)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("zero-seeded stream produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(99)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for b, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Fatalf("bucket %d has %d draws, expected about %d", b, c, draws/n)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBitsBalance(t *testing.T) {
	r := New(21)
	bs := make([]bool, 100000)
	r.Bits(bs)
	ones := 0
	for _, b := range bs {
		if b {
			ones++
		}
	}
	if ones < 49000 || ones > 51000 {
		t.Fatalf("bit stream heavily biased: %d ones out of %d", ones, len(bs))
	}
}

func TestWordsFills(t *testing.T) {
	r := New(77)
	w := make([]uint64, 32)
	r.Words(w)
	zero := 0
	for _, v := range w {
		if v == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("Words left %d zero words out of %d", zero, len(w))
	}
}

func TestSplitStableAcrossRuns(t *testing.T) {
	// Splitting is a pure function of the parent state: two identically
	// seeded parents must yield identical substream families.
	a := New(123).Split(8)
	b := New(123).Split(8)
	for i := range a {
		for d := 0; d < 100; d++ {
			if av, bv := a[i].Uint64(), b[i].Uint64(); av != bv {
				t.Fatalf("substream %d diverged at draw %d: %x vs %x", i, d, av, bv)
			}
		}
	}
}

func TestSplitAdvancesParent(t *testing.T) {
	// Split consumes parent state, so a second Split (and draws after a
	// Split) must not replay the first family.
	p := New(9)
	f1 := p.Split(4)
	f2 := p.Split(4)
	if f1[0].Uint64() == f2[0].Uint64() {
		t.Fatal("consecutive Split calls produced the same substreams")
	}
}

func TestSplitSubstreamsDisjoint(t *testing.T) {
	// 1e6 draws from each of two substreams must not overlap: xoshiro
	// sequences from unrelated seeds would only collide by 64-bit chance
	// (~5e-8 for this volume), and the fixed seed makes the check exact.
	if testing.Short() {
		t.Skip("2e6 draws")
	}
	streams := New(2026).Split(2)
	const draws = 1_000_000
	seen := make(map[uint64]int8, 2*draws)
	for si, s := range streams {
		for i := 0; i < draws; i++ {
			v := s.Uint64()
			if prev, ok := seen[v]; ok && prev != int8(si) {
				t.Fatalf("substreams share value %x (draw %d of stream %d)", v, i, si)
			}
			seen[v] = int8(si)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
