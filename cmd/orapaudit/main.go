// Command orapaudit runs the security static analyzer over locked
// .bench netlists: key-gate removability, topology fingerprints and
// output-corruptibility bounds, with findings referencing the attack
// literature that exploits each weakness.
//
// Usage:
//
//	orapaudit locked.bench ...       # audit netlists, text report
//	orapaudit -json locked.bench     # machine-readable report
//	orapaudit -explain locked.bench  # append witness paths to key findings
//	orapaudit -min-corrupt 4 x.bench # raise the corruptibility threshold
//	orapaudit -exact locked.bench    # model-counted verdicts (ROBDD backend)
//	orapaudit -sweep                 # built-in clean-sweep regression gate
//
// -exact swaps the structural corruptibility and key-leak bounds for
// exact symbolic verdicts: the analyzer compiles each key bit's
// corruption cone to a ROBDD, once for all bits sharing the cone, and
// model-counts corrupting (input, key) pairs and distinguishing inputs
// per bit. A bit whose cone and own operations exceed the node budget
// (-bdd-budget, default 2^19 nodes per key bit) degrades back to the
// dataflow bound; the report's telemetry line counts such fallbacks.
//
// Exit codes (documented in README, asserted in tests, consumed by the
// make audit leg):
//
//	0  clean, or info-level findings only
//	1  error-severity findings (or a netlist that fails internal/check)
//	2  internal failure (unreadable file, bad flags)
//	3  warning-severity findings, no errors
//
// -sweep audits every shipped reference circuit under all five locking
// schemes plus the weighted + OraP pairing, and enforces the repo's
// fixed-point expectations: random-XOR locking must fire the
// fingerprint/removability rules, and OraP-protected configurations
// must audit error-free with full effective key entropy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"orap/internal/audit"
	"orap/internal/check"
	"orap/internal/ir"
)

// Exit codes.
const (
	exitClean    = 0
	exitErrors   = 1
	exitInternal = 2
	exitWarnings = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	KeyBit   int    `json:"key_bit"`
	Node     int    `json:"node"`
	Name     string `json:"name,omitempty"`
	Line     int    `json:"line,omitempty"`
	Msg      string `json:"msg"`
	Ref      string `json:"ref,omitempty"`
}

// jsonExactBit is the -json wire form of one key bit's symbolic
// verdict; the model counts travel as decimal strings since they can
// exceed float64 (and JSON number) precision.
type jsonExactBit struct {
	Bit          int     `json:"bit"`
	OK           bool    `json:"ok"`
	ConePOs      int     `json:"cone_pos"`
	SensPOs      int     `json:"sens_pos"`
	SupportVars  int     `json:"support_vars"`
	CorruptCount string  `json:"corrupt_count,omitempty"`
	Rate         float64 `json:"rate"`
	DistInputs   string  `json:"dist_inputs,omitempty"`
	LeakPOs      []int32 `json:"leak_pos,omitempty"`
}

// jsonExact is the -json wire form of the symbolic backend's result.
type jsonExact struct {
	NumPIs       int            `json:"num_pis"`
	NumKeys      int            `json:"num_keys"`
	Bits         []jsonExactBit `json:"bits"`
	BDDNodes     int            `json:"bdd_nodes"`
	BDDPeakNodes int            `json:"bdd_peak_nodes"`
	BDDBudget    int            `json:"bdd_budget"`
	CacheHitRate float64        `json:"ite_cache_hit_rate"`
	Fallbacks    int            `json:"budget_fallbacks"`
}

// jsonReport is the -json wire form of one circuit's report.
type jsonReport struct {
	Circuit  string        `json:"circuit"`
	Findings []jsonFinding `json:"findings"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
	Infos    int           `json:"infos"`
	Exact    *jsonExact    `json:"exact,omitempty"`
}

func toJSON(rep *audit.Report) jsonReport {
	out := jsonReport{Circuit: rep.Circuit, Findings: []jsonFinding{}}
	out.Errors, out.Warnings, out.Infos = rep.Counts()
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, jsonFinding{
			Rule:     f.Rule,
			Severity: f.Sev.String(),
			KeyBit:   f.KeyBit,
			Node:     f.Node,
			Name:     f.Name,
			Line:     f.Line,
			Msg:      f.Msg,
			Ref:      f.Ref,
		})
	}
	if ex := rep.Exact; ex != nil {
		je := &jsonExact{
			NumPIs:       ex.NumPIs,
			NumKeys:      ex.NumKeys,
			BDDNodes:     ex.Stats.Nodes,
			BDDPeakNodes: ex.Stats.PeakNodes,
			BDDBudget:    ex.Stats.Budget,
			CacheHitRate: ex.Stats.HitRate(),
			Fallbacks:    ex.Stats.Fallbacks,
		}
		for _, b := range ex.Bits {
			jb := jsonExactBit{
				Bit:         b.Bit,
				OK:          b.OK,
				ConePOs:     b.ConePOs,
				SensPOs:     b.SensPOs,
				SupportVars: b.SupportVars,
				Rate:        b.Rate,
				LeakPOs:     b.LeakPOs,
			}
			if b.CorruptCount != nil {
				jb.CorruptCount = b.CorruptCount.String()
			}
			if b.DistInputs != nil {
				jb.DistInputs = b.DistInputs.String()
			}
			je.Bits = append(je.Bits, jb)
		}
		out.Exact = je
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orapaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut    = fs.Bool("json", false, "emit the report as JSON")
		wall       = fs.Bool("Wall", false, "also print internal/check warnings while loading")
		sweep      = fs.Bool("sweep", false, "run the built-in clean-sweep regression gate and exit")
		explain    = fs.Bool("explain", false, "append a key-to-node witness path to each key-anchored finding (text mode)")
		minCorrupt = fs.Int("min-corrupt", 0, "low-corruptibility threshold in primary outputs (0 = default)")
		exact      = fs.Bool("exact", false, "model-counted verdicts via the ROBDD backend (falls back per key bit over budget)")
		bddBudget  = fs.Int("bdd-budget", 0, "per-key-bit BDD node budget for -exact (0 = default 2^19)")
	)
	if err := fs.Parse(args); err != nil {
		return exitInternal
	}
	if *sweep {
		return runSweep(stdout, stderr)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "orapaudit: no input files (and no -sweep); see -h")
		return exitInternal
	}

	opts := audit.Options{MinCorruptPOs: *minCorrupt, Exact: *exact, BDDBudget: *bddBudget}
	code := exitClean
	raise := func(c int) {
		// Severity order of the exit codes is errors > warnings > clean;
		// internal failures abort immediately and never reach here.
		if c == exitErrors || code == exitErrors {
			code = exitErrors
		} else if c == exitWarnings {
			code = exitWarnings
		}
	}
	var reports []jsonReport
	for _, path := range fs.Args() {
		c, crep, err := check.File(path)
		if err != nil {
			fmt.Fprintf(stderr, "orapaudit: %v\n", err)
			return exitInternal
		}
		if *wall || crep.HasErrors() {
			fmt.Fprint(stderr, crep.String())
		}
		if crep.HasErrors() {
			// A netlist that fails the structural checker counts as
			// error findings, not as an internal failure: the input was
			// readable, the verdict is "broken".
			raise(exitErrors)
			continue
		}
		prog, err := ir.Compile(c)
		if err != nil {
			fmt.Fprintf(stderr, "orapaudit: %s: %v\n", path, err)
			return exitInternal
		}
		rep := audit.AnalyzeProgram(prog, c, opts)
		errs, warns, infos := rep.Counts()
		switch {
		case errs > 0:
			raise(exitErrors)
		case warns > 0:
			raise(exitWarnings)
		}
		if *jsonOut {
			reports = append(reports, toJSON(rep))
			continue
		}
		if *explain {
			printExplained(stdout, prog, c, rep)
		} else {
			fmt.Fprint(stdout, rep.String())
		}
		fmt.Fprintf(stdout, "%s: %d errors, %d warnings, %d notes\n", path, errs, warns, infos)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(stderr, "orapaudit: %v\n", err)
			return exitInternal
		}
	}
	return code
}
