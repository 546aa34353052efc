package oracle

import (
	"testing"

	"orap/internal/rng"
	"orap/internal/scan"
)

// BenchmarkScanOracle64 prices one 64-lane batch through the scan
// protocol of an OraP chip.
func BenchmarkScanOracle64(b *testing.B) {
	_, _, ch := protectedChip(b, scan.OraPBasic, 99)
	o := NewScan(ch)
	in, _ := drawBatch(rng.New(17), o.NumInputs(), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.QueryWords(in, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCachedBatch prices a fully-memoised batch: after warm-up
// every lane is a transcript hit, so no scan protocol runs at all.
func BenchmarkSessionCachedBatch(b *testing.B) {
	_, _, ch := protectedChip(b, scan.OraPBasic, 99)
	s := NewSession(NewScan(ch), 0)
	in, _ := drawBatch(rng.New(17), s.NumInputs(), 64)
	if _, err := s.QueryWords(in, 64); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryWords(in, 64); err != nil {
			b.Fatal(err)
		}
	}
}
