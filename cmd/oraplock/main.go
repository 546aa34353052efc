// Command oraplock locks a combinational .bench circuit with a
// conventional locking layer (weighted logic locking by default) and
// synthesizes the OraP key sequence that unlocks it.
//
// Usage:
//
//	oraplock -in c432.bench -out c432_locked.bench -keybits 64 -ctrl 3
//
// The locked netlist is written in .bench format (key inputs named
// keyinput0…), the correct key and the OraP key sequence (the seeds the
// chip owner would store in tamper-proof memory) are printed, along with
// the unlock schedule and register overhead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"orap/internal/bench"
	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

// The valid -lock and -protect names.
var (
	schemes     = []string{"weighted", "random", "sarlock", "antisat", "ttlock"}
	protections = []string{"basic", "modified", "none"}
)

func main() {
	var (
		in      = flag.String("in", "", "input .bench file (required)")
		out     = flag.String("out", "", "output .bench file for the locked netlist (default: stdout)")
		keyBits = flag.Int("keybits", 64, "key (LFSR) size, at least 1 and even for -lock antisat; a size above what the circuit can take is clamped")
		ctrl    = flag.Int("ctrl", 3, "weighted-locking control gate width (1 = plain XOR/XNOR)")
		scheme  = flag.String("lock", "weighted", "locking technique: "+strings.Join(schemes, ", "))
		prot    = flag.String("protect", "basic", "OraP variant: "+strings.Join(protections, ", "))
		pins    = flag.Int("pins", -1, "number of leading inputs that are package pins; the rest feed from flip-flops (-1 = all inputs are pins)")
		pinOuts = flag.Int("pinouts", -1, "number of leading outputs that are package pins (-1 = all outputs are pins)")
		seed    = flag.Uint64("seed", 1, "random seed")
		wall    = flag.Bool("Wall", false, "print warning- and info-level netlist diagnostics")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "oraplock: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	// The lockers read a non-positive width as "every input", and
	// Anti-SAT splits the key into two equal halves, so both would
	// silently change the key size asked for.
	switch {
	case *keyBits < 1:
		usage("-keybits must be at least 1, got %d", *keyBits)
	case *scheme == "antisat" && *keyBits%2 != 0:
		usage("-keybits must be even for -lock antisat (two equal halves), got %d", *keyBits)
	case *pins < -1:
		usage("-pins must be -1 (all inputs) or at least 0, got %d", *pins)
	case *pinOuts < -1:
		usage("-pinouts must be -1 (all outputs) or at least 0, got %d", *pinOuts)
	}
	checkName("lock", *scheme, schemes)
	checkName("protect", *prot, protections)
	var warn io.Writer
	if *wall {
		warn = os.Stderr
	}
	circuit, err := check.LoadFile(*in, warn)
	fatal(err)
	prog, err := ir.Compile(circuit)
	fatal(err)
	fmt.Fprintf(os.Stderr, "parsed %s\n", prog.Summary())

	r := rng.New(*seed)
	var locked *lock.Locked
	switch *scheme {
	case "weighted":
		locked, err = lock.Weighted(circuit, lock.WeightedOptions{
			KeyBits:      *keyBits,
			ControlWidth: *ctrl,
			Rand:         r,
		})
	case "random":
		locked, err = lock.RandomXOR(circuit, *keyBits, r)
	case "sarlock":
		locked, err = lock.SARLock(circuit, *keyBits, r)
	case "antisat":
		locked, err = lock.AntiSAT(circuit, *keyBits/2, r)
	case "ttlock":
		locked, err = lock.TTLock(circuit, *keyBits, r)
	}
	fatal(err)

	var protection scan.Protection
	switch *prot {
	case "basic":
		protection = scan.OraPBasic
	case "modified":
		protection = scan.OraPModified
	case "none":
		protection = scan.None
	}
	realPIs, realPOs := *pins, *pinOuts
	if realPIs < 0 {
		realPIs = circuit.NumInputs()
	}
	if realPOs < 0 {
		realPOs = circuit.NumOutputs()
	}
	if protection == scan.OraPModified && circuit.NumInputs()-realPIs == 0 {
		fatal(fmt.Errorf("the modified scheme needs flip-flops: pass -pins/-pinouts to mark part of the interface as flip-flop connections"))
	}
	cfg, err := orap.Protect(locked.Circuit, locked.Key, realPIs, realPOs, protection, orap.Options{Rand: r})
	fatal(err)

	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		fatal(err)
		defer w.Close()
	}
	fatal(bench.Format(w, locked.Circuit))

	lockedProg, err := ir.Compile(locked.Circuit)
	fatal(err)
	fmt.Fprintf(os.Stderr, "locked circuit: %s", lockedProg.Summary())
	fmt.Fprintf(os.Stderr, "correct key:    %s\n", bits(locked.Key))
	if protection != scan.None {
		ov := orap.RegisterOverhead(cfg.LFSR)
		fmt.Fprintf(os.Stderr, "OraP register:  %d cells, %d reseeding points, %d taps\n",
			cfg.LFSR.N, len(cfg.LFSR.Inject), len(cfg.LFSR.Taps))
		fmt.Fprintf(os.Stderr, "register cost:  %d gates (+%d inverters)\n",
			ov.Gates(), ov.PulseGenInverters)
		fmt.Fprintf(os.Stderr, "unlock:         %d seeds over %d cycles\n",
			cfg.Schedule.NumSeeds(), cfg.Schedule.TotalCycles())
		for i, s := range cfg.Seeds {
			fmt.Fprintf(os.Stderr, "  seed %2d: %s\n", i, s)
		}
	}
}

func bits(bs []bool) string {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// checkName exits with a usage error unless value, given to flag -name,
// is one of valid; stderr names the value and the valid names.
func checkName(name, value string, valid []string) {
	if !slices.Contains(valid, value) {
		usage("unknown -%s %q; valid names: %s", name, value, strings.Join(valid, ", "))
	}
}

// usage reports a usage error on stderr and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oraplock: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "oraplock: %v\n", err)
		os.Exit(1)
	}
}
