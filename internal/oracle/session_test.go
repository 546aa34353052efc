package oracle

import (
	"bytes"
	"testing"

	"orap/internal/circuits"
	"orap/internal/rng"
	"orap/internal/scan"
)

func TestSessionMemoisesRepeatedQueries(t *testing.T) {
	c := circuits.C17()
	inner, _ := NewComb(c, nil)
	s := NewSession(inner, 0)
	x := []bool{true, false, true, true, false}
	y1, err := Query(s, x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := Query(s, x)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(boolBytes(y1), boolBytes(y2)) {
		t.Fatal("cached response differs from the original")
	}
	if inner.Queries() != 1 {
		t.Fatalf("underlying oracle saw %d queries, want 1", inner.Queries())
	}
	// The attack's view counts both; the channel view records the hit.
	if s.Queries() != 2 {
		t.Fatalf("session Queries() = %d, want 2", s.Queries())
	}
	st := s.Stats()
	if st.Unique != 1 || st.CacheHits != 1 || st.Queries != 2 {
		t.Fatalf("stats = %+v, want 1 unique / 1 hit / 2 queries", st)
	}
	// Cached responses must be defensive copies.
	y1[0] = !y1[0]
	y3, _ := Query(s, x)
	if y3[0] == y1[0] {
		t.Fatal("cache aliases a caller-held slice")
	}
}

// distinctBatch packs n guaranteed-distinct patterns (the binary encodings
// of 0..n-1), avoiding random-draw collisions in narrow circuits.
func distinctBatch(inputs, n int) ([]uint64, [][]bool) {
	in := make([]uint64, inputs)
	pats := make([][]bool, n)
	for p := 0; p < n; p++ {
		x := make([]bool, inputs)
		for i := range x {
			x[i] = p>>uint(i)&1 == 1
		}
		pats[p] = x
		PackPattern(in, p, x)
	}
	return in, pats
}

func TestSessionBatchedMemoisation(t *testing.T) {
	c := circuits.RippleAdder(4)
	inner, _ := NewComb(c, nil)
	s := NewSession(inner, 0)
	in, pats := distinctBatch(s.NumInputs(), 32)
	if _, err := s.QueryWords(in, 32); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Unique; got != 32 {
		t.Fatalf("unique = %d, want 32", got)
	}
	// Re-ask the same batch: all lanes served from the transcript.
	out, err := s.QueryWords(in, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheHits; got != 32 {
		t.Fatalf("cache hits = %d, want 32", got)
	}
	if inner.Queries() != 32 {
		t.Fatalf("underlying oracle saw %d queries, want 32", inner.Queries())
	}
	// Scatter from cache must equal the original responses.
	y := make([]bool, s.NumOutputs())
	for p, x := range pats {
		want, _ := Query(s, x) // cached too
		UnpackPattern(out, p, y)
		if !bytes.Equal(boolBytes(y), boolBytes(want)) {
			t.Fatalf("lane %d: cached batch response differs", p)
		}
	}
}

func TestSessionCountsInBatchDuplicatesAsHits(t *testing.T) {
	c := circuits.C17()
	inner, _ := NewComb(c, nil)
	s := NewSession(inner, 0)
	// 8 lanes, all the same pattern: one admitted query, 7 hits.
	in := make([]uint64, 5)
	PackPattern(in, 0, []bool{true, true, false, false, true})
	for i := range in {
		if in[i]&1 == 1 {
			in[i] = LaneMask(8)
		}
	}
	if _, err := s.QueryWords(in, 8); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Unique != 1 || st.CacheHits != 7 || st.Queries != 8 {
		t.Fatalf("stats = %+v, want 1 unique / 7 hits / 8 queries", st)
	}
	if st.OracleCalls != 1 {
		t.Fatalf("oracle crossings = %d, want 1 (one forwarded batch)", st.OracleCalls)
	}
}

func TestSessionBudgetCountsOnlyAdmitted(t *testing.T) {
	c := circuits.C17()
	inner, _ := NewComb(c, nil)
	// Pre-warm the oracle so lifetime queries exceed the budget up front.
	if _, err := Query(inner, make([]bool, 5)); err != nil {
		t.Fatal(err)
	}
	s := NewSession(inner, 2)
	a := []bool{true, false, false, false, false}
	b := []bool{false, true, false, false, false}
	d := []bool{false, false, true, false, false}
	if _, err := Query(s, a); err != nil {
		t.Fatal(err)
	}
	if _, err := Query(s, b); err != nil {
		t.Fatal(err)
	}
	// Budget exhausted for new patterns…
	if _, err := Query(s, d); err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if got := s.Stats().Unique; got != 2 {
		t.Fatalf("unique = %d after a rejected query, want 2", got)
	}
	// …but transcript hits stay free.
	if _, err := Query(s, a); err != nil {
		t.Fatalf("cache hit rejected under exhausted budget: %v", err)
	}
}

func TestSessionBatchBudgetIsAtomic(t *testing.T) {
	c := circuits.RippleAdder(4)
	inner, _ := NewComb(c, nil)
	s := NewSession(inner, 10)
	in, _ := drawBatch(rng.New(5), s.NumInputs(), 16)
	// 16 misses against a 10-query budget: the whole batch is rejected and
	// the session is left untouched.
	if _, err := s.QueryWords(in, 16); err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if st := s.Stats(); st.Unique != 0 || st.Queries != 0 || inner.Queries() != 0 {
		t.Fatalf("rejected batch had side effects: unique %d, queries %d, inner %d",
			st.Unique, st.Queries, inner.Queries())
	}
	// A batch that fits is admitted.
	if _, err := s.QueryWords(in, 10); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Unique; got != 10 {
		t.Fatalf("unique = %d, want 10", got)
	}
}

func TestSessionScanCycleModel(t *testing.T) {
	// Comb models a direct oracle: one capture clock per admitted query.
	c := circuits.C17()
	comb, _ := NewComb(c, nil)
	s := NewSession(comb, 0)
	if _, err := Query(s, make([]bool, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := Query(s, make([]bool, 5)); err != nil { // cache hit: free
		t.Fatal(err)
	}
	if got := s.Stats().ScanCycles; got != 1 {
		t.Fatalf("comb scan cycles = %d, want 1", got)
	}

	// Scan models the full protocol: 2·chain-length+1 per admitted query,
	// matching the chip's own cycle accounting.
	_, _, ch := protectedChip(t, scan.OraPBasic, 11)
	so := NewScan(ch)
	ss := NewSession(so, 0)
	in, _ := drawBatch(rng.New(12), ss.NumInputs(), 9)
	if _, err := ss.QueryWords(in, 9); err != nil {
		t.Fatal(err)
	}
	want := 9 * ch.CyclesPerQuery()
	if got := ss.Stats().ScanCycles; got != want {
		t.Fatalf("scan cycles = %d, want %d (9 queries × (2·%d+1))", got, want, ch.ChainLength())
	}
	if ch.Cycles() != want {
		t.Fatalf("chip accounted %d cycles, session modeled %d", ch.Cycles(), want)
	}
}

func TestSessionQueryWidthChecked(t *testing.T) {
	c := circuits.C17()
	inner, _ := NewComb(c, nil)
	s := NewSession(inner, 0)
	if _, err := Query(s, make([]bool, 3)); err == nil {
		t.Fatal("wrong scalar width accepted")
	}
	if _, err := s.QueryWords(make([]uint64, 3), 4); err == nil {
		t.Fatal("wrong batch width accepted")
	}
}
