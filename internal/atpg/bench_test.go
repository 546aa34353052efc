package atpg

import (
	"strings"
	"testing"

	"orap/internal/faultsim"
	"orap/internal/rng"
)

// BenchmarkATPG runs Run, the deterministic phase of the Table II flow,
// on the costliest designs of the repository benchmark's tables
// workload: b17 and b21 at scale 0.007, locked as Table I locks them,
// after 32 blocks of random-pattern fault simulation. conflicts/op is
// the solver's effort over the whole campaign.
func BenchmarkATPG(b *testing.B) {
	for _, d := range tableIIDesigns(b, 0.007, 1, "b17", "b21") {
		if !strings.HasSuffix(d.name, "-locked") {
			continue
		}
		b.Run(d.name, func(b *testing.B) {
			_, sim := compileWithSim(b, d.c)
			sim.Workers = 1
			rand := sim.RunRandom(faultsim.CollapseFaults(d.c), 32, rng.New(1))
			var sum Summary
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if sum, err = Run(d.c, sim, rand, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sum.Solver.Conflicts), "conflicts/op")
		})
	}
}
