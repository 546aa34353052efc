// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three closed-loop, single-client workloads as a fixed op list
// derived from --seed:
//
//	attack  the Section II-A attacks through the scan protocol
//	audit   the structural (orapbench -audit) and exact (orapaudit -exact)
//	        security audits
//	tables  the Table I and Table II drivers
//
// A run builds the workload's designs (set-up), then times every op with
// tracing off. With --trace 1 it repeats the same op list with a span
// around every call into a layer and reports the per-layer metrics
// instead of the end-to-end ones. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// perfbench/BENCHMARK.md defines every workload and metric.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload attack --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

const (
	// A run builds its designs at least minSetups times and until
	// setupBudget of set-up time has passed, at most maxSetups times;
	// setup_s is the median build. Small set-ups thus get enough builds
	// for a steady median.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
	// minSamples is the fewest op latencies a run measures, so that ten
	// or more lie beyond p90; a shorter op list is repeated to reach it.
	minSamples = 100
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: attack, audit or tables")
		seed    = flag.Uint64("seed", 1, "seed the op list and every input derive from")
		seconds = flag.Float64("seconds", 10, "measured time the op list is sized for")
		trace   = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload attack|audit|tables --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	units := int(math.Max(1, math.Round(seconds/w.unitSeconds)))
	p := w.plan(seed, units)
	tr := newTracer()
	tr.on = traced

	// The designs are deterministic, so every build yields the same
	// inputs; the ops run on the last one.
	var designs []*design
	var setup []float64
	for total := 0.0; len(setup) < minSetups || (total < setupBudget.Seconds() && len(setup) < maxSetups); {
		runtime.GC()
		start := time.Now()
		ds, err := buildAll(&env{tr: tr}, p.specs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		total += setup[len(setup)-1]
		designs = ds
	}
	tr.on = false

	passes := (minSamples + len(p.ops) - 1) / len(p.ops)
	timed := measure(&env{tr: tr, ctr: map[string]float64{}}, designs, p.ops, passes)
	fmt.Printf("perfbench %s seed %d: %d units, %d designs, %d ops x %d passes = %d samples; setup_s %.4g\n",
		name, seed, units, len(designs), len(p.ops), passes, timed.attempted, setup)
	timed.print("timed")
	res := &result{
		Correct:   timed.failed == 0 && timed.stable,
		Attempted: timed.attempted,
		Failed:    timed.failed,
	}
	if !traced {
		res.Metrics = endToEnd(timed, setup)
		return res, nil
	}

	// The traced run also writes a CPU profile; the span labels split it
	// by layer (go tool pprof -tagfocus span=<name>).
	out := fmt.Sprintf(".bench_build/perfbench-%s-%d", name, seed)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(out + ".pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	tr.on = true
	tx := measure(&env{tr: tr, ctr: map[string]float64{}}, designs, p.ops, passes)
	tr.on = false
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	tx.print("traced")
	// The spans and the oracle wrapper must leave the code path alone:
	// the traced run reproduces the untraced outputs and effort counters.
	same := tx.digest == timed.digest && equalCounters(tx.ctr, timed.ctr)
	if !same {
		fmt.Fprintln(os.Stderr, "perfbench: the traced run's digest or counters differ from the untraced run's")
	}
	res.Correct = res.Correct && same && tx.failed == 0 && tx.stable
	if err := tr.write(out + ".trace.json"); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans in %s.trace.json, CPU profile in %[2]s.pprof\n", len(tr.spans), out)
	res.Metrics = perLayer(tr, timed, tx, len(setup))
	return res, nil
}

func buildAll(x *env, specs []spec) ([]*design, error) {
	ds := make([]*design, len(specs))
	for i, s := range specs {
		if err := x.tr.span("setup", func() (err error) {
			ds[i], err = build(x, s)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// runStats is what one measured run of the op list observed.
type runStats struct {
	lat               []time.Duration // per op, in run order
	cpu               time.Duration   // process user+sys CPU inside the ops
	alloc             uint64          // bytes allocated over the run
	attempted, failed int
	digest            uint64 // over every op's outputs in the first pass
	stable            bool   // every later pass reproduced the first
	ctr               map[string]float64
	gcCPU, userCPU    float64 // runtime CPU estimates inside the ops, s
	gcCycles          float64 // automatic collections over the run
	family            map[string]time.Duration
}

// measure runs the op list passes times, one op at a time, with a
// collection before each op outside its timed region: every op starts
// from a settled heap, as a fresh command-line process would.
func measure(x *env, designs []*design, ops []op, passes int) runStats {
	r := runStats{ctr: x.ctr, stable: true, family: map[string]time.Duration{}}
	var first []string
	outs := make([]string, len(ops))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	forcedGC := 0.0 // GC CPU of the collections between ops
	for pass := 0; pass < passes; pass++ {
		for i, o := range ops {
			g0 := readRuntime()
			runtime.GC()
			forcedGC += readRuntime()[0] - g0[0]
			x.tr.op = int32(len(r.lat))
			cpu0 := cpuTime()
			start := time.Now()
			var out string
			err := x.tr.span("op."+o.family, func() (err error) {
				out, err = o.run(x, designs[o.design])
				return err
			})
			lat := time.Since(start)
			r.cpu += cpuTime() - cpu0
			r.lat = append(r.lat, lat)
			r.family[o.family] += lat
			if err != nil {
				r.failed++
				out += " error: " + err.Error()
				if r.failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", i, o.family, err)
				}
			}
			outs[i] = out
		}
		if pass == 0 {
			first = append([]string(nil), outs...)
		} else {
			for i := range outs {
				if outs[i] != first[i] {
					r.stable = false
				}
			}
		}
	}
	x.tr.op = -1
	rt1 := readRuntime()
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	r.attempted = len(r.lat)
	r.gcCPU = rt1[0] - rt0[0] - forcedGC
	r.userCPU = rt1[1] - rt0[1]
	r.gcCycles = rt1[2] - rt0[2]
	h := fnv.New64a()
	for _, s := range first {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	r.digest = h.Sum64()
	return r
}

func equalCounters(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
