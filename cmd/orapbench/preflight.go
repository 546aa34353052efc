package main

import (
	"fmt"
	"io"

	"orap/internal/audit"
	"orap/internal/benchgen"
	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

// Preflight exit codes, shared with cmd/orapaudit so CI legs can treat
// the two tools uniformly.
const (
	exitClean    = 0
	exitErrors   = 1
	exitInternal = 2
	exitWarnings = 3
)

// preflight generates every benchmark the tables would use at this
// scale/seed and runs the structural checker over each; with doAudit it
// additionally locks each one the way Table I does (weighted locking at
// the profile's LFSR size and control width), audits the locked netlist
// and OraP-protects it for the oracle-path audit. Exit codes: 0 clean or
// info-only, 1 error-severity findings, 2 generation/synthesis failure,
// 3 warnings only.
func preflight(names []string, scale float64, seed uint64, doAudit bool, stdout, stderr io.Writer) int {
	if names == nil {
		for _, p := range benchgen.Profiles {
			names = append(names, p.Name)
		}
	}
	code := exitClean
	raise := func(c int) {
		if c == exitErrors || code == exitErrors {
			code = exitErrors
		} else if c == exitWarnings {
			code = exitWarnings
		}
	}
	for _, name := range names {
		prof, err := benchgen.ProfileByName(name)
		if err != nil {
			fmt.Fprintf(stderr, "orapbench: %v\n", err)
			return exitInternal
		}
		scaled := prof.Scale(scale)
		c, err := benchgen.Generate(scaled, seed)
		if err != nil {
			fmt.Fprintf(stderr, "orapbench: %s: %v\n", name, err)
			return exitInternal
		}
		rep := check.Circuit(c)
		fmt.Fprint(stdout, rep.String())
		fmt.Fprintf(stdout, "%-8s %d diagnostics, %d errors\n",
			name, len(rep.Findings), len(rep.Errors()))
		switch {
		case rep.HasErrors():
			raise(exitErrors)
		case len(rep.Findings) > 0:
			raise(exitWarnings)
		}
		if !doAudit || rep.HasErrors() {
			continue
		}

		// Audit leg: the same lock + protect pairing the tables measure.
		r := rng.NewNamed(seed, "preflight/audit/"+name)
		l, err := lock.Weighted(c, lock.WeightedOptions{
			KeyBits:      scaled.LFSRSize,
			ControlWidth: scaled.CtrlInputs,
			Rand:         r,
		})
		if err != nil {
			fmt.Fprintf(stderr, "orapbench: %s: weighted lock: %v\n", name, err)
			return exitInternal
		}
		prog, err := ir.Compile(l.Circuit)
		if err != nil {
			fmt.Fprintf(stderr, "orapbench: %s: audit: %v\n", name, err)
			return exitInternal
		}
		arep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{})
		cfg, err := orap.Protect(l.Circuit, l.Key, scaled.Pins, scaled.PinOuts, scan.OraPBasic, orap.Options{Rand: r})
		if err != nil {
			fmt.Fprintf(stderr, "orapbench: %s: OraP protect: %v\n", name, err)
			return exitInternal
		}
		orep, err := audit.Oracle(cfg, nil)
		if err != nil {
			fmt.Fprintf(stderr, "orapbench: %s: oracle audit: %v\n", name, err)
			return exitInternal
		}
		fmt.Fprint(stdout, arep.String())
		fmt.Fprint(stdout, orep.String())
		ne, nw, _ := arep.Counts()
		oe, ow, _ := orep.Counts()
		fmt.Fprintf(stdout, "%-8s audit: netlist %dE/%dW, oracle %dE/%dW, entropy %d/%d\n",
			name, ne, nw, oe, ow, orep.EffectiveEntropy, orep.NominalEntropy)
		switch {
		case ne+oe > 0:
			raise(exitErrors)
		case nw+ow > 0:
			raise(exitWarnings)
		}
	}
	return code
}
