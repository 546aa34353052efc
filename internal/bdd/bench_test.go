package bdd

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/rng"
)

// BenchmarkBDDCompile measures symbolic compilation of every primary
// output of a weighted-locked b20 slice on a fresh Manager — the same
// shape the exact audit compiles once per cone group. Runs in the
// bench-smoke CI leg, so a budget regression (compile suddenly blowing
// up) fails loudly.
func BenchmarkBDDCompile(b *testing.B) {
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		b.Fatal(err)
	}
	scaled := prof.Scale(0.004)
	circuit, err := benchgen.Generate(scaled, 2020)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits: 16, ControlWidth: 3, Rand: rng.New(2020),
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := ir.Compile(l.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	order := InputOrder(p)

	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(len(order), 0)
		cp := NewCompiler(m, p)
		for v, id := range order {
			if err := cp.BindVar(id, v); err != nil {
				b.Fatal(err)
			}
		}
		for _, o := range p.POs {
			if _, err := cp.Compile(o); err != nil {
				b.Fatal(err)
			}
		}
		nodes = m.Stats().Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}
