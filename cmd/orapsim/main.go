// Command orapsim simulates one chip session: build an OraP-protected
// chip from a locked .bench netlist, run the owner's unlock sequence,
// then play an attacker's scan queries (or a chosen Trojan scenario)
// against it, printing what each side observes.
//
// Usage:
//
//	orapsim -locked c432_locked.bench -key 0110… -protect basic \
//	        -query 101001… -query 111000…
//	orapsim -locked c432_locked.bench -key 0110… -protect modified -trojan freeze
//
// Each -query shifts a pattern through the scan chains (scan in – capture
// – scan out) and prints the response next to the correct one, bit
// differences marked. -trojan {suppress,shadow,freeze} arms the
// corresponding Section III payload before the session.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

type queryList []string

func (q *queryList) String() string { return fmt.Sprint(*q) }
func (q *queryList) Set(s string) error {
	*q = append(*q, s)
	return nil
}

// The valid -protect and -trojan names.
var (
	protections = []string{"none", "basic", "modified"}
	trojans     = []string{"suppress", "shadow", "freeze"}
)

func main() {
	var queries queryList
	var (
		lockedPath = flag.String("locked", "", "locked .bench netlist (required)")
		key        = flag.String("key", "", "correct key as a 0/1 string (required)")
		prot       = flag.String("protect", "basic", "protection: "+strings.Join(protections, ", "))
		trojanName = flag.String("trojan", "", "arm a Trojan: "+strings.Join(trojans, ", "))
		pins       = flag.Int("pins", -1, "package-pin inputs (-1 = all)")
		pinOuts    = flag.Int("pinouts", -1, "package-pin outputs (-1 = all)")
		seed       = flag.Uint64("seed", 1, "random seed for the scheme synthesis")
		wall       = flag.Bool("Wall", false, "print warning- and info-level netlist diagnostics")
	)
	flag.Var(&queries, "query", "input pattern to scan in (repeatable); random patterns are used when none given")
	flag.Parse()
	if *lockedPath == "" || *key == "" {
		fmt.Fprintln(os.Stderr, "orapsim: -locked and -key are required")
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *pins < -1:
		usage("-pins must be -1 (all inputs) or at least 0, got %d", *pins)
	case *pinOuts < -1:
		usage("-pinouts must be -1 (all outputs) or at least 0, got %d", *pinOuts)
	}
	checkName("protect", *prot, protections)
	if *trojanName != "" {
		checkName("trojan", *trojanName, trojans)
	}
	var warn io.Writer
	if *wall {
		warn = os.Stderr
	}
	locked, err := check.LoadFile(*lockedPath, warn)
	fatal(err)
	if len(*key) != locked.NumKeys() {
		fatal(fmt.Errorf("key must have %d bits, got %d", locked.NumKeys(), len(*key)))
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
	cfg, err := orap.Protect(locked, kb, realPIs, realPOs, protection, orap.Options{Rand: rng.New(*seed)})
	fatal(err)
	chip, err := scan.New(cfg)
	fatal(err)

	fmt.Printf("chip: %s protection, %d-bit key register", protection, locked.NumKeys())
	if protection != scan.None {
		fmt.Printf(", %d seeds over %d unlock cycles", cfg.Schedule.NumSeeds(), cfg.Schedule.TotalCycles())
	}
	fmt.Println()

	switch *trojanName {
	case "":
	case "suppress":
		chip.ArmTrojans(scan.Trojans{SuppressKeyReset: true})
		fmt.Println("trojan: key-register reset suppressed (scenarios a/b)")
	case "shadow":
		chip.ArmTrojans(scan.Trojans{ShadowKey: true})
		fmt.Println("trojan: shadow key register armed (scenario c)")
	case "freeze":
		chip.ArmTrojans(scan.Trojans{FreezeFFs: true})
		fmt.Println("trojan: flip-flops frozen during unlock (scenario e)")
	}

	fmt.Println("owner: running the unlock sequence…")
	fatal(chip.Unlock(nil))
	fmt.Printf("owner: key register now %s (correct: %s)\n", bits(chip.Key()), *key)

	if *trojanName == "shadow" {
		leaked, err := chip.ReadShadow()
		fatal(err)
		fmt.Printf("trojan: shadow register leaked %s\n", bits(leaked))
	}

	// Attacker session: each scan response beside the correct one.
	o := oracle.NewScan(chip)
	pats := patterns(queries, locked, *seed)
	prog := ir.MustCompile(locked)
	fmt.Printf("\nattacker: %d scan queries (scan in – capture – scan out)\n", len(pats))
	for qi, x := range pats {
		resp, err := oracle.Query(o, x)
		fatal(err)
		want, err := prog.Eval(x, kb)
		fatal(err)
		diff := 0
		for i := range resp {
			if resp[i] != want[i] {
				diff++
			}
		}
		status := "CORRECT — oracle exposed"
		if diff > 0 {
			status = fmt.Sprintf("%d/%d bits wrong — locked-circuit response", diff, len(resp))
		}
		fmt.Printf("  query %d: in=%s out=%s (%s)\n", qi, bits(x), bits(resp), status)
	}
	fmt.Printf("\nkey register after the session: %s\n", bits(chip.Key()))
	fmt.Printf("scan interface: %d test-clock cycles (%d-cell longest chain, %d cycles per query)\n",
		chip.Cycles(), chip.ChainLength(), chip.CyclesPerQuery())
}

// patterns parses the -query strings or draws random patterns.
func patterns(qs queryList, c *netlist.Circuit, seed uint64) [][]bool {
	var out [][]bool
	for _, q := range qs {
		if len(q) != c.NumInputs() {
			fatal(fmt.Errorf("query %q must have %d bits", q, c.NumInputs()))
		}
		x, err := parseBits("query", q)
		fatal(err)
		out = append(out, x)
	}
	if len(out) == 0 {
		r := rng.New(seed + 100)
		for i := 0; i < 3; i++ {
			x := make([]bool, c.NumInputs())
			r.Bits(x)
			out = append(out, x)
		}
	}
	return out
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
	fmt.Fprintf(os.Stderr, "orapsim: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "orapsim: %v\n", err)
		os.Exit(1)
	}
}
