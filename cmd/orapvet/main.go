// Command orapvet enforces this repository's cross-package invariants —
// the properties the compiler cannot check but the experiments and the
// threat model depend on. It is a thin driver over internal/vet, which
// typechecks ./internal/... and ./cmd/... once and runs two rule
// layers: the syntactic rules (norand, nowalltime, irmutate, shortrace,
// deadexport) and the interprocedural secret-flow engine behind
// nosecret, whose findings carry a witness chain from the key
// material's source through every call to the sink.
//
// Usage:
//
//	orapvet [-C dir] [-json] [-report file]
//
// Findings print one per line as file:line: [rule] message; secret-flow
// findings are followed by their indented witness chain. -json writes
// the machine-readable report to stdout instead; -report additionally
// writes it to a file (the CI artifact).
//
// Exit codes (same convention as orapaudit, asserted in tests and
// consumed by the make orapvet leg):
//
//	0  clean
//	1  error-severity findings
//	2  internal failure (no module, parse or typecheck error, bad flags)
//	3  warning-severity findings only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"orap/internal/vet"
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

// jsonHop is the -json wire form of one witness-chain hop.
type jsonHop struct {
	Kind string `json:"kind"`
	Desc string `json:"desc"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	Rule     string    `json:"rule"`
	Severity string    `json:"severity"`
	File     string    `json:"file"`
	Line     int       `json:"line"`
	Msg      string    `json:"msg"`
	Chain    []jsonHop `json:"chain,omitempty"`
}

// jsonReport is the -json wire form of one module's report.
type jsonReport struct {
	Module   string        `json:"module"`
	Findings []jsonFinding `json:"findings"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orapvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory inside the module to vet")
	jsonOut := fs.Bool("json", false, "write the report as JSON to stdout")
	reportFile := fs.String("report", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return exitInternal
	}

	root, modPath, err := vet.FindModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "orapvet: %v\n", err)
		return exitInternal
	}
	findings, err := vet.Analyze(root, modPath)
	if err != nil {
		fmt.Fprintf(stderr, "orapvet: %v\n", err)
		return exitInternal
	}

	// Relative paths keep reports stable across checkouts.
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil {
			return filepath.ToSlash(r)
		}
		return name
	}
	rep := jsonReport{Module: modPath, Findings: []jsonFinding{}}
	for _, f := range findings {
		jf := jsonFinding{
			Rule:     f.Rule,
			Severity: f.Sev.String(),
			File:     rel(f.Pos.Filename),
			Line:     f.Pos.Line,
			Msg:      f.Msg,
		}
		for _, h := range f.Chain {
			jf.Chain = append(jf.Chain, jsonHop{Kind: h.Kind, Desc: h.Desc, File: rel(h.Pos.Filename), Line: h.Pos.Line})
		}
		rep.Findings = append(rep.Findings, jf)
		if f.Sev == vet.SevError {
			rep.Errors++
		} else {
			rep.Warnings++
		}
	}

	if *reportFile != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*reportFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "orapvet: %v\n", err)
			return exitInternal
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "orapvet: %v\n", err)
			return exitInternal
		}
	} else {
		for _, jf := range rep.Findings {
			fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", jf.File, jf.Line, jf.Rule, jf.Msg)
			for _, h := range jf.Chain {
				fmt.Fprintf(stdout, "\t%-6s %s at %s:%d\n", h.Kind, h.Desc, h.File, h.Line)
			}
		}
		if len(rep.Findings) == 0 {
			fmt.Fprintf(stdout, "orapvet: %s clean\n", modPath)
		}
	}

	switch {
	case rep.Errors > 0:
		return exitErrors
	case rep.Warnings > 0:
		return exitWarnings
	}
	return exitClean
}
