package check

import (
	"fmt"
	"io"
	"os"

	"orap/internal/bench"
	"orap/internal/netlist"
)

// parseRule maps bench parse-error codes onto check rule IDs.
var parseRule = map[bench.ErrCode]string{
	bench.ErrSyntax:      RuleSyntax,
	bench.ErrUnknownOp:   RuleUnknownOp,
	bench.ErrDupDef:      RuleDupDef,
	bench.ErrMultiDriven: RuleMultiDriven,
	bench.ErrUndefined:   RuleUndefined,
	bench.ErrCycle:       RuleCycle,
	bench.ErrStructure:   RuleArity,
	bench.ErrIO:          RuleIO,
}

// fromParseError converts a bench parse failure into a finding.
// Non-ParseError values map onto a generic syntax finding.
func fromParseError(err error) Finding {
	f := Finding{Rule: RuleSyntax, Sev: Error, KeyBit: -1, Node: -1, Msg: err.Error()}
	if pe, ok := err.(*bench.ParseError); ok {
		if rule, ok := parseRule[pe.Code]; ok {
			f.Rule = rule
		}
		f.Name, f.Line, f.Msg = pe.Token, pe.Line, pe.Msg
	}
	return f
}

// source parses a .bench description and checks it. Parse failures come
// back as a report with a single source-level finding and a nil
// circuit; successful parses return the circuit and the full Circuit
// report.
func source(r io.Reader, name string) (*netlist.Circuit, *Report) {
	c, err := bench.Parse(r, name)
	if err != nil {
		return nil, &Report{Circuit: name, Findings: []Finding{fromParseError(err)}}
	}
	return c, Circuit(c)
}

// File opens, parses and checks a .bench file. The returned error covers
// only I/O failures on open; parse and structural findings are in the
// report.
func File(path string) (*netlist.Circuit, *Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	c, rep := source(f, path)
	return c, rep, nil
}

// LoadFile is the command-line loading discipline shared by the cmd/*
// tools: parse path, run the full rule set, fail on any error-severity
// finding, and — when warn is non-nil (the -Wall flag) — print the
// surviving warning- and info-level findings to it.
func LoadFile(path string, warn io.Writer) (*netlist.Circuit, error) {
	c, rep, err := File(path)
	if err != nil {
		return nil, err
	}
	if warn != nil {
		fmt.Fprint(warn, rep.String())
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return c, nil
}
