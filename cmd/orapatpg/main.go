// Command orapatpg runs the Table II testability flow on a circuit:
// fault collapsing, random-pattern fault simulation with dropping (the
// HOPE step), then SAT-based deterministic test generation with
// redundant/aborted classification (the Atalanta step).
//
// Usage:
//
//	orapatpg -in c432.bench
//	orapatpg -gen b20 -scale 0.05     # on a generated benchmark profile
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"orap/internal/atpg"
	"orap/internal/benchgen"
	"orap/internal/check"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

func main() {
	var (
		in           = flag.String("in", "", "input .bench file")
		gen          = flag.String("gen", "", "generate a synthetic benchmark instead (s38417, b17, …)")
		scale        = flag.Float64("scale", 0.05, "scale factor for -gen")
		randomBlocks = flag.Int("randblocks", 32, "random fault-simulation blocks (64 patterns each) before ATPG")
		budget       = flag.Int64("conflicts", 0, "SAT conflict budget per fault (0 = high effort)")
		seed         = flag.Uint64("seed", 1, "random seed")
		workers      = flag.Int("workers", 0, "fault-simulation worker pool size (0 = all cores, 1 = serial); results are identical at any setting")
		wall         = flag.Bool("Wall", false, "print warning- and info-level netlist diagnostics")
	)
	flag.Parse()
	scaleExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scale" {
			scaleExplicit = true
		}
	})
	switch {
	case *in != "" && *gen != "":
		fmt.Fprintln(os.Stderr, "orapatpg: -in and -gen are mutually exclusive")
		os.Exit(2)
	case scaleExplicit && *gen == "":
		fmt.Fprintln(os.Stderr, "orapatpg: -scale applies only to -gen")
		os.Exit(2)
	}
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "orapatpg: -scale must be in (0, 1], got %v\n", *scale)
		os.Exit(2)
	}
	for _, f := range []struct {
		name  string
		value int64
	}{{"randblocks", int64(*randomBlocks)}, {"conflicts", *budget}, {"workers", int64(*workers)}} {
		if f.value < 0 {
			fmt.Fprintf(os.Stderr, "orapatpg: -%s must not be negative, got %d\n", f.name, f.value)
			os.Exit(2)
		}
	}

	var warn io.Writer
	if *wall {
		warn = os.Stderr
	}
	var circuit *netlist.Circuit
	switch {
	case *in != "":
		var err error
		circuit, err = check.LoadFile(*in, warn)
		fatal(err)
	case *gen != "":
		prof, err := benchgen.ProfileByName(*gen)
		fatal(err)
		circuit, err = benchgen.Generate(prof.Scale(*scale), *seed)
		fatal(err)
		// Generated circuits are structurally sound by construction, but
		// the hygiene rules still apply to them.
		rep := check.Circuit(circuit)
		if warn != nil {
			fmt.Fprint(os.Stderr, rep.String())
		}
		fatal(rep.Err())
	default:
		fmt.Fprintln(os.Stderr, "orapatpg: pass -in or -gen")
		flag.Usage()
		os.Exit(2)
	}
	prog, err := ir.Compile(circuit)
	fatal(err)
	fmt.Printf("circuit: %s", prog.Summary())

	sim, err := faultsim.ForProgram(prog)
	fatal(err)
	sim.Workers = *workers
	faults := faultsim.CollapseFaults(circuit)
	fmt.Printf("collapsed fault list: %d faults\n", len(faults))

	start := time.Now()
	randRes := sim.RunRandom(faults, *randomBlocks, rng.New(*seed))
	fmt.Printf("random phase: %d/%d detected (%.2f%%) in %v, %d faults remain\n",
		randRes.Detected, randRes.Total, randRes.Coverage(),
		time.Since(start).Round(time.Millisecond), len(randRes.Remaining))

	start = time.Now()
	sum, err := atpg.Run(circuit, sim, randRes, atpg.Options{ConflictBudget: *budget})
	fatal(err)
	fmt.Printf("deterministic phase: %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("fault coverage:      %.2f%%\n", sum.Coverage())
	fmt.Printf("detected:            %d/%d\n", sum.Detected, sum.Total)
	fmt.Printf("redundant:           %d\n", sum.Redundant)
	fmt.Printf("aborted:             %d\n", sum.Aborted)
	fmt.Printf("red + abrt:          %d\n", sum.RedundantPlusAborted())
	fmt.Printf("generated patterns:  %d\n", len(sum.Patterns))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "orapatpg: %v\n", err)
		os.Exit(1)
	}
}
