package dataflow_test

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/rng"
)

// BenchmarkDataflow measures one pass of the four analyses
// (pair/key-difference, key taint, SCOAP controllability +
// observability) over the scaled b19 benchmark locked the way Table I
// locks it — the workload internal/audit runs per analysis. Each
// analysis is a single sweep; Pair runs once per 64-key slice, as the
// audit's removability pass does.
func BenchmarkDataflow(b *testing.B) {
	prof, err := benchgen.ProfileByName("b19")
	if err != nil {
		b.Fatal(err)
	}
	scaled := prof.Scale(0.05)
	circuit, err := benchgen.Generate(scaled, 2020)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits:      scaled.LFSRSize,
		ControlWidth: scaled.CtrlInputs,
		Rand:         rng.New(2020),
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := ir.Compile(l.Circuit)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < p.NumKeys(); lo += 64 {
			dataflow.Pair(p, p.Keys[lo:min(lo+64, p.NumKeys())])
		}
		dataflow.KeyTaint(p)
		cc := dataflow.Controllability(p)
		dataflow.Observability(p, cc)
	}
	b.ReportMetric(float64(p.NumNodes()), "nodes")
}
