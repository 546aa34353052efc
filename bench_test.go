// Package orap's root benchmark harness regenerates every table and
// figure-equivalent of the paper's evaluation, one testing.B benchmark
// per experiment. The benchmarks run the generated benchmark circuits at
// a reduced scale by default so `go test -bench=. -benchmem` finishes in
// minutes; run `go run ./cmd/orapbench -table all -scale 1` for
// paper-scale numbers. Key result figures are attached to each benchmark
// via b.ReportMetric, so the -bench output doubles as a summary of the
// reproduction.
package orap_test

import (
	"testing"

	"orap/internal/audit"
	"orap/internal/benchgen"
	"orap/internal/exp"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/metrics"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// The reduced-scale knobs for every benchmark live here so the whole
// harness is retuned in one place.
const (
	// benchScale is the default circuit scale for benchmarks.
	benchScale = 0.05
	// benchTableIIScale is Table II's lighter scale: its flow runs full
	// ATPG per circuit, which dominates everything else at benchScale
	// (mirroring orapbench's reduced ATPG default).
	benchTableIIScale = 0.01
	benchSeed         = 2020
)

// BenchmarkTableI regenerates Table I (HD %, area overhead %, delay
// overhead % under OraP + weighted logic locking) on scaled versions of
// all eight benchmark circuits. Reported metrics: the mean HD and mean
// area overhead across circuits.
//
// The Serial/Parallel pair measures the worker-pool speedup on the same
// workload (Workers 1 vs all cores); the tables they produce are
// identical, which the exp determinism tests assert.
func benchmarkTableI(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.TableI(exp.TableIOptions{
			Scale:    benchScale,
			Patterns: 1 << 14,
			Workers:  workers,
			Seed:     benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		var hd, area float64
		for _, r := range rows {
			hd += r.HDPercent
			area += r.AreaOvhd
		}
		b.ReportMetric(hd/float64(len(rows)), "meanHD%")
		b.ReportMetric(area/float64(len(rows)), "meanAreaOvhd%")
	}
}

func BenchmarkTableI(b *testing.B)         { benchmarkTableI(b, 0) }
func BenchmarkTableISerial(b *testing.B)   { benchmarkTableI(b, 1) }
func BenchmarkTableIParallel(b *testing.B) { benchmarkTableI(b, 0) }

// BenchmarkHD measures the Hamming-distance kernel alone (one locked
// circuit, many pattern blocks) serial vs parallel.
func benchmarkHD(b *testing.B, workers int) {
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		b.Fatal(err)
	}
	circuit, err := benchgen.Generate(prof.Scale(benchScale), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{KeyBits: 48, ControlWidth: 3, Rand: rng.New(benchSeed)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := metrics.HammingDistance(l.Circuit, l.Key, metrics.HDOptions{
			Patterns:  1 << 15,
			WrongKeys: 4,
			Workers:   workers,
			Rand:      rng.New(benchSeed + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HDPercent, "HD%")
	}
}

func BenchmarkHDSerial(b *testing.B)   { benchmarkHD(b, 1) }
func BenchmarkHDParallel(b *testing.B) { benchmarkHD(b, 0) }

// benchEvalCircuit builds the circuit shared by the IR benchmarks.
func benchEvalCircuit(b *testing.B) *netlist.Circuit {
	b.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		b.Fatal(err)
	}
	circuit, err := benchgen.Generate(prof.Scale(benchScale), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return circuit
}

// BenchmarkIRCompile measures ir.Compile alone: the one-time cost every
// evaluator pays to obtain the flat program.
func BenchmarkIRCompile(b *testing.B) {
	circuit := benchEvalCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Compile(circuit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalIR measures one full 64-pattern bit-parallel sweep over
// the scaled b20 netlist through the shared IR kernel.
func BenchmarkEvalIR(b *testing.B) {
	circuit := benchEvalCircuit(b)
	prog, err := ir.Compile(circuit)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]uint64, prog.NumNodes())
	r := rng.New(benchSeed + 3)
	for _, id := range prog.Inputs {
		vals[id] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.RunWords(vals, 1, prog.Order)
	}
}

// BenchmarkFaultSim measures the PPSFP random fault-simulation kernel
// serial vs parallel on one generated circuit.
func benchmarkFaultSim(b *testing.B, workers int) {
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		b.Fatal(err)
	}
	circuit, err := benchgen.Generate(prof.Scale(benchScale), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	faults := faultsim.CollapseFaults(circuit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := ir.Compile(circuit)
		if err != nil {
			b.Fatal(err)
		}
		s, err := faultsim.ForProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		s.Workers = workers
		res := s.RunRandom(faults, 16, rng.New(benchSeed+2))
		b.ReportMetric(res.Coverage(), "coverage%")
	}
}

func BenchmarkFaultSimSerial(b *testing.B)   { benchmarkFaultSim(b, 1) }
func BenchmarkFaultSimParallel(b *testing.B) { benchmarkFaultSim(b, 0) }

// auditFindings is BenchmarkAudit's finding count on b19@0.05: 8,706 of
// them are testability-bound infos, so the benchmark is also the one
// that sorts a large report.
const auditFindings = 8914

// BenchmarkAudit measures the full security analyzer (removability
// constant propagation, 64 key bits per sweep, fingerprint classification,
// corruptibility cones, the canonical report sort) on the largest
// generated circuit, locked the way Table I locks it. Reported metric:
// findings per run, pinned to auditFindings so a rule regression fails
// the benchmark next to a timing one.
func BenchmarkAudit(b *testing.B) {
	prof, err := benchgen.ProfileByName("b19")
	if err != nil {
		b.Fatal(err)
	}
	scaled := prof.Scale(benchScale)
	circuit, err := benchgen.Generate(scaled, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits:      scaled.LFSRSize,
		ControlWidth: scaled.CtrlInputs,
		Rand:         rng.New(benchSeed),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := ir.Compile(l.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{})
		if rep.HasErrors() {
			b.Fatalf("audit errors on the weighted-locked benchmark:\n%s", rep)
		}
		if n := len(rep.Findings); n != auditFindings {
			b.Fatalf("%d findings on the weighted-locked benchmark, want %d", n, auditFindings)
		}
		b.ReportMetric(float64(len(rep.Findings)), "findings")
	}
}

// BenchmarkTableII regenerates Table II (stuck-at fault coverage and
// redundant+aborted fault counts, original vs protected). The coverage
// delta (protected − original, averaged) is reported; the paper's
// observation is that it is non-negative.
func BenchmarkTableII(b *testing.B) {
	circuits := []string{"s38417", "s38584", "b17", "b20", "b21", "b22"}
	if testing.Short() {
		circuits = []string{"b20"}
	}
	for i := 0; i < b.N; i++ {
		rows, err := exp.TableII(exp.TableIIOptions{
			Scale:    benchTableIIScale,
			Circuits: circuits,
			Seed:     benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		var delta float64
		for _, r := range rows {
			delta += r.ProtFC - r.OrigFC
		}
		b.ReportMetric(delta/float64(len(rows)), "meanFCdelta%")
	}
}

// BenchmarkSectionIIA regenerates the Section II-A security analysis as
// an experiment: four oracle-guided attacks against the unprotected and
// the OraP-gated scan oracle. Reported metrics: how many attacks steal a
// correct key in each mode (expected: all vs none).
func BenchmarkSectionIIA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AttackStudy(exp.AttackStudyOptions{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		var vsNone, vsOraP float64
		for _, r := range rows {
			if r.KeyCorrect {
				if r.Protection == "none" {
					vsNone++
				} else {
					vsOraP++
				}
			}
		}
		b.ReportMetric(vsNone, "stolen-vs-unprotected")
		b.ReportMetric(vsOraP, "stolen-vs-orap")
	}
}

// BenchmarkSectionIII regenerates the Section III Trojan study: payload
// costs under the countermeasures plus behavioural outcomes of every
// scenario against the basic and modified schemes. Reported metric: the
// scenario-(d) payload in gate equivalents for a 128-bit register.
func BenchmarkSectionIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.TrojanStudy(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scenario == "d" {
				b.ReportMetric(r.PayloadGE, "payloadD-GE")
			}
			if r.Scenario == "e" && (!r.BasicWorks || r.ModifiedWorks) {
				b.Fatalf("scenario (e) shape broken: basic=%v modified=%v", r.BasicWorks, r.ModifiedWorks)
			}
		}
	}
}

// BenchmarkSATScaling regenerates the attack-scaling ablation: SAT-attack
// iterations against random XOR locking, weighted locking, SARLock and
// Anti-SAT as the key widens. Reported metric: SARLock iterations at the
// widest swept key (expected ≈ 2^keybits).
func BenchmarkSATScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.SATScaling(exp.SATScalingOptions{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Defense == "sarlock" && r.KeyBits == 8 {
				b.ReportMetric(float64(r.Iterations), "sarlock8-iters")
			}
		}
	}
}

// BenchmarkXorTreeSweep regenerates the attack-(d) design-space sweep:
// the XOR-tree payload a Trojan needs as a function of the LFSR wiring
// and unlock schedule. Reported metric: the payload at the densest swept
// design point.
func BenchmarkXorTreeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.XorTreeSweep()
		if err != nil {
			b.Fatal(err)
		}
		max := 0.0
		for _, r := range rows {
			if r.PayloadGE > max {
				max = r.PayloadGE
			}
		}
		b.ReportMetric(max, "maxPayload-GE")
	}
}

// BenchmarkCtrlWidthSweep regenerates the weighted-locking control-width
// ablation (HD versus control gate width). Reported metric: HD at width 3
// (Table I's standard choice).
func BenchmarkCtrlWidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.CtrlWidthSweep(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ControlWidth == 3 {
				b.ReportMetric(r.HDPercent, "HD@w3-%")
			}
		}
	}
}

// BenchmarkOtherAttacks regenerates the bypass / SPS+removal
// applicability study. Reported metric: how many of the five rows apply
// (expected 3: bypass/SARLock both oracles, SPS/Anti-SAT).
func BenchmarkOtherAttacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.OtherAttacks(11)
		if err != nil {
			b.Fatal(err)
		}
		applies := 0.0
		for _, r := range rows {
			if r.Applies {
				applies++
			}
		}
		b.ReportMetric(applies, "applicable-rows")
	}
}

// BenchmarkKeySizeSweep regenerates the HD-saturation ablation. Reported
// metric: HD at the largest swept key size (expected just under 50%).
func BenchmarkKeySizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.KeySizeSweep(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].HDPercent, "HD@96-%")
	}
}
