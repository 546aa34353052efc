// Command orapattack runs oracle-guided attacks against a locked .bench
// circuit.
//
// The oracle is built from the original (unlocked) circuit plus, for the
// realistic mode, a simulated chip with scan chains: -oracle comb queries
// the function directly, -oracle scan goes through the scan in – capture –
// scan out protocol of a chip protected as requested. Against -protect
// basic/modified the scan oracle answers for the locked circuit (the key
// register clears on the scan-enable rising edge) and the attacks fail —
// the paper's central claim, reproducible from the command line.
//
// Usage:
//
//	orapattack -locked c432_locked.bench -orig c432.bench -attack sat -oracle scan -protect basic
//
// By default every interface bit of the simulated chip is a package
// pin. -pins and -pinouts mark only that many leading inputs and outputs
// as pins, as in oraplock and orapsim; the rest connect to flip-flops,
// which -protect modified needs for its response feedback. -protect,
// -key, -pins and -pinouts configure the chip, so the command refuses
// them without -oracle scan.
//
// With -dimacs <path> the command instead writes the SAT-attack miter for
// the locked netlist as a DIMACS CNF file (input/key variable indices in
// the header comments) for cross-checking against external solvers, and
// exits without running an attack.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"orap/internal/attack"
	"orap/internal/check"
	"orap/internal/cnf"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/scan"
)

// The valid -attack, -oracle and -protect names.
var (
	attacks     = []string{"sat", "doubledip", "appsat", "hill", "sensitize"}
	oracles     = []string{"comb", "scan"}
	protections = []string{"none", "basic", "modified"}
)

func main() {
	var (
		lockedPath = flag.String("locked", "", "locked .bench netlist (required)")
		origPath   = flag.String("orig", "", "original .bench netlist, used as the oracle and for verification (required)")
		attackName = flag.String("attack", "sat", "attack: "+strings.Join(attacks, ", "))
		oracleKind = flag.String("oracle", "comb", "oracle: comb (direct) or scan (through the chip's scan protocol)")
		prot       = flag.String("protect", "none", "chip protection for -oracle scan: "+strings.Join(protections, ", "))
		key        = flag.String("key", "", "correct key as a 0/1 string (required for -oracle scan)")
		pins       = flag.Int("pins", -1, "for -oracle scan: number of leading inputs that are package pins; the rest feed from flip-flops (-1 = all inputs are pins)")
		pinOuts    = flag.Int("pinouts", -1, "for -oracle scan: number of leading outputs that are package pins (-1 = all outputs are pins)")
		maxIter    = flag.Int("maxiter", 4096, "attack iteration budget")
		seed       = flag.Uint64("seed", 1, "random seed")
		wall       = flag.Bool("Wall", false, "print warning- and info-level netlist diagnostics")
		dimacsPath = flag.String("dimacs", "", "write the SAT-attack miter as DIMACS CNF to this path and exit (no attack run)")
	)
	flag.Parse()
	if *lockedPath == "" || *origPath == "" {
		fmt.Fprintln(os.Stderr, "orapattack: -locked and -orig are required")
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *maxIter < 1:
		usage("-maxiter must be positive, got %d", *maxIter)
	case *pins < -1:
		usage("-pins must be -1 (all inputs) or at least 0, got %d", *pins)
	case *pinOuts < -1:
		usage("-pinouts must be -1 (all outputs) or at least 0, got %d", *pinOuts)
	}
	checkName("attack", *attackName, attacks)
	checkName("oracle", *oracleKind, oracles)
	checkName("protect", *prot, protections)
	if *oracleKind != "scan" {
		// These flags configure the scan chip; without it the attack
		// would query the bare function and read as if they had no effect.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "protect", "key", "pins", "pinouts":
				usage("-%s applies only to -oracle scan", f.Name)
			}
		})
	}
	var warn io.Writer
	if *wall {
		warn = os.Stderr
	}
	locked := parse(*lockedPath, warn)
	orig := parse(*origPath, warn)
	if orig.NumKeys() != 0 {
		fatal(fmt.Errorf("original netlist %q has key inputs; pass the unlocked design", *origPath))
	}

	if *dimacsPath != "" {
		fatal(dumpMiterDIMACS(locked, *dimacsPath))
		fmt.Printf("wrote miter CNF for %s to %s\n", locked.Name, *dimacsPath)
		return
	}

	var inner oracle.Oracle
	switch *oracleKind {
	case "comb":
		var err error
		inner, err = oracle.NewComb(orig, nil)
		fatal(err)
	case "scan":
		if len(*key) != locked.NumKeys() {
			usage("-oracle scan needs -key with %d bits, one per key input of %s; got %d", locked.NumKeys(), *lockedPath, len(*key))
		}
		kb, err := parseBits("key", *key)
		fatal(err)
		var protection scan.Protection
		switch *prot {
		case "none":
			protection = scan.None
		case "basic":
			protection = scan.OraPBasic
		case "modified":
			protection = scan.OraPModified
		}
		realPIs, realPOs := *pins, *pinOuts
		if realPIs < 0 {
			realPIs = locked.NumInputs()
		}
		if realPOs < 0 {
			realPOs = locked.NumOutputs()
		}
		if protection == scan.OraPModified && locked.NumInputs()-realPIs == 0 {
			fatal(fmt.Errorf("the modified scheme needs flip-flops: pass -pins/-pinouts to mark part of the interface as flip-flop connections"))
		}
		cfg, err := orap.Protect(locked, kb, realPIs, realPOs, protection, orap.Options{Rand: rng.New(*seed + 7)})
		fatal(err)
		ch, err := scan.New(cfg)
		fatal(err)
		fatal(ch.Unlock(nil))
		inner = oracle.NewScan(ch)
	}
	// Every attack runs through a channel session: batched word queries,
	// transcript memoisation, and the telemetry printed below.
	o := oracle.NewSession(inner, 0)

	budgets := attack.Budgets{MaxIterations: *maxIter}
	r := rng.New(*seed)
	start := time.Now()
	var (
		res *attack.Result
		err error
	)
	switch *attackName {
	case "sat":
		res, err = attack.SAT(locked, o, budgets)
	case "doubledip":
		res, err = attack.DoubleDIP(locked, o, budgets)
	case "appsat":
		res, err = attack.AppSAT(locked, o, attack.AppSATOptions{Budgets: budgets, Rand: r})
	case "hill":
		res, err = attack.HillClimb(locked, o, attack.HillOptions{Rand: r})
	case "sensitize":
		var sres *attack.SensitizeResult
		sres, err = attack.Sensitize(locked, o, r)
		if sres != nil {
			res = &sres.Result
			determined := 0
			for _, d := range sres.Determined {
				if d {
					determined++
				}
			}
			fmt.Printf("determined key bits: %d/%d\n", determined, locked.NumKeys())
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if err != nil {
		fmt.Printf("attack %s failed after %v: %v\n", *attackName, elapsed, err)
		if res != nil {
			fmt.Printf("iterations: %d, oracle queries: %d\n", res.Iterations, res.OracleQueries)
		}
		printChannel(o.Stats(), *oracleKind == "scan")
		os.Exit(1)
	}
	fmt.Printf("attack:        %s (%v)\n", *attackName, elapsed)
	fmt.Printf("converged:     %v\n", res.Converged)
	fmt.Printf("iterations:    %d\n", res.Iterations)
	fmt.Printf("oracle queries:%d\n", res.OracleQueries)
	printChannel(o.Stats(), *oracleKind == "scan")
	st := res.SolverStats
	fmt.Printf("solver:        %d conflicts, %d decisions, %d propagations (%d binary)\n",
		st.Conflicts, st.Decisions, st.Propagations, st.BinPropagations)
	fmt.Printf("learned:       %d clauses (%d glue, mean LBD %.2f, mean len %.1f), %d lits minimized away\n",
		st.Learnt, st.GlueClauses(), st.MeanLBD(), st.MeanLearntLen(), st.MinimizedLits)
	if st.Reductions > 0 {
		fmt.Printf("reductions:    %d (removed %d learned clauses)\n", st.Reductions, st.RemovedClauses)
	}
	if res.Key == nil {
		fmt.Println("no key recovered")
		os.Exit(1)
	}
	fmt.Printf("recovered key: %s\n", bits(res.Key))
	ok, err := attack.VerifyKey(locked, orig, res.Key)
	fatal(err)
	fmt.Printf("key correct:   %v (strash/SAT equivalence check)\n", ok)
	if !ok {
		dis, err := attack.SampleDisagreement(locked, res.Key, mustComb(orig), 512, rng.New(*seed+99))
		fatal(err)
		fmt.Printf("disagreement:  %.1f%% of sampled inputs\n", 100*dis)
	}
}

// dumpMiterDIMACS builds the cone-of-influence SAT-attack miter for the
// locked circuit and writes it in DIMACS CNF, with header comments mapping
// the shared primary inputs, the two key copies and the activation
// variable to their 1-based DIMACS indices. External solvers can check the
// base formula: it is satisfiable iff some input pattern distinguishes two
// keys (solve under the unit assumption act=true; act=false disables the
// disequality).
func dumpMiterDIMACS(locked *netlist.Circuit, path string) error {
	s := sat.New()
	m, err := cnf.NewMiter(s, locked)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "c SAT-attack miter (cone-of-influence encoding) for circuit %q\n", locked.Name)
	fmt.Fprintf(w, "c two key copies share the primary inputs; the clause guarded by act\n")
	fmt.Fprintf(w, "c asserts that some key-reachable output differs between the copies.\n")
	fmt.Fprintf(w, "c assume act (positive) to search for a distinguishing input;\n")
	fmt.Fprintf(w, "c assume -act for a formula where the copies may agree everywhere.\n")
	fmt.Fprintf(w, "c variables are 1-based DIMACS indices:\n")
	fmt.Fprintf(w, "c act %d\n", int(m.Act)+1)
	fmt.Fprintf(w, "c inputs %s\n", dimacsVars(m.PIVars))
	fmt.Fprintf(w, "c key1 %s\n", dimacsVars(m.Key1))
	fmt.Fprintf(w, "c key2 %s\n", dimacsVars(m.Key2))
	if err := w.Flush(); err != nil {
		return err
	}
	if err := s.WriteDIMACS(f); err != nil {
		return err
	}
	return f.Close()
}

// dimacsVars renders a variable slice as space-separated 1-based indices.
func dimacsVars(vars []sat.Var) string {
	var b strings.Builder
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", int(v)+1)
	}
	return b.String()
}

// printChannel reports the session's view of the oracle access channel:
// how many patterns crossed the interface, how many were distinct, how
// much the transcript cache saved and, through the scan oracle, the
// modeled scan-clock bill.
func printChannel(st oracle.ChannelStats, scanOracle bool) {
	fmt.Printf("oracle channel: %d unique patterns, %.1f%% cache hits, %d oracle crossings\n",
		st.Unique, 100*st.HitRate(), st.OracleCalls)
	if scanOracle && st.ScanCycles > 0 {
		fmt.Printf("scan cycles:    %d (modeled, 2*chain+1 clocks per admitted query)\n", st.ScanCycles)
	}
}

func parse(path string, warn io.Writer) *netlist.Circuit {
	c, err := check.LoadFile(path, warn)
	fatal(err)
	return c
}

func mustComb(c *netlist.Circuit) oracle.Oracle {
	o, err := oracle.NewComb(c, nil)
	fatal(err)
	return o
}

// parseBits reads the 0/1 string s given to flag -name. Any other
// character is an error naming the flag and the bit's position.
func parseBits(name, s string) ([]bool, error) {
	out := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			out[i] = true
		default:
			return nil, fmt.Errorf("-%s: bit %d is %q, want 0 or 1", name, i, s[i])
		}
	}
	return out, nil
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
	fmt.Fprintf(os.Stderr, "orapattack: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "orapattack: %v\n", err)
		os.Exit(1)
	}
}
