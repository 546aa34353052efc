package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runCase drives run() the way main does and returns the exit code plus
// both streams.
func runCase(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodeClean(t *testing.T) {
	code, out, _ := runCase(t, "testdata/clean.bench")
	if code != exitClean {
		t.Fatalf("exit %d, want %d\n%s", code, exitClean, out)
	}
	if !strings.Contains(out, "0 errors, 0 warnings") {
		t.Fatalf("missing summary line:\n%s", out)
	}
}

func TestExitCodeWarningsOnly(t *testing.T) {
	code, out, _ := runCase(t, "testdata/warn.bench")
	if code != exitWarnings {
		t.Fatalf("exit %d, want %d\n%s", code, exitWarnings, out)
	}
	if !strings.Contains(out, "[key-fingerprint]") || !strings.Contains(out, "[low-corruptibility]") {
		t.Fatalf("expected fingerprint and corruptibility warnings:\n%s", out)
	}
}

func TestExitCodeErrors(t *testing.T) {
	code, out, _ := runCase(t, "testdata/err.bench")
	if code != exitErrors {
		t.Fatalf("exit %d, want %d\n%s", code, exitErrors, out)
	}
	if !strings.Contains(out, "[key-removable]") {
		t.Fatalf("expected a removability error:\n%s", out)
	}
}

// Errors must dominate warnings across a multi-file run, whatever the
// argument order.
func TestExitCodePrecedence(t *testing.T) {
	for _, args := range [][]string{
		{"testdata/warn.bench", "testdata/err.bench"},
		{"testdata/err.bench", "testdata/warn.bench"},
		{"testdata/clean.bench", "testdata/warn.bench"},
	} {
		want := exitErrors
		if args[0] == "testdata/clean.bench" {
			want = exitWarnings
		}
		code, out, _ := runCase(t, args...)
		if code != want {
			t.Errorf("%v: exit %d, want %d\n%s", args, code, want, out)
		}
	}
}

func TestExitCodeInternal(t *testing.T) {
	if code, _, _ := runCase(t, "testdata/missing.bench"); code != exitInternal {
		t.Fatalf("missing file: exit %d, want %d", code, exitInternal)
	}
	if code, _, _ := runCase(t); code != exitInternal {
		t.Fatalf("no arguments: exit %d, want %d", code, exitInternal)
	}
	if code, _, _ := runCase(t, "-nosuchflag"); code != exitInternal {
		t.Fatalf("bad flag: exit %d, want %d", code, exitInternal)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runCase(t, "-json", "testdata/warn.bench", "testdata/clean.bench")
	if code != exitWarnings {
		t.Fatalf("exit %d, want %d", code, exitWarnings)
	}
	var reports []jsonReport
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("unparseable JSON: %v\n%s", err, out)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	warn := reports[0]
	if warn.Errors != 0 || warn.Warnings == 0 {
		t.Fatalf("warn.bench counts: %+v", warn)
	}
	seen := map[string]bool{}
	for _, f := range warn.Findings {
		seen[f.Rule] = true
		if f.Severity == "" || f.Msg == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	if !seen["key-fingerprint"] || !seen["low-corruptibility"] {
		t.Fatalf("missing rules in JSON findings: %+v", warn.Findings)
	}
	if clean := reports[1]; len(clean.Findings) != 0 {
		t.Fatalf("clean.bench findings: %+v", clean.Findings)
	}
}

// -min-corrupt raises the corruptibility threshold: a key bit covering
// both outputs is clean by default but flagged at 3.
func TestMinCorruptFlag(t *testing.T) {
	code, out, _ := runCase(t, "-min-corrupt", "1", "testdata/warn.bench")
	if code != exitWarnings {
		t.Fatalf("exit %d, want %d\n%s", code, exitWarnings, out)
	}
	if strings.Contains(out, "[low-corruptibility]") {
		t.Fatalf("corruptibility fired below the explicit threshold:\n%s", out)
	}
}

// A negative -min-corrupt or -bdd-budget is a usage error naming the
// flag, not a silent fall back to the default.
func TestNegativeFlags(t *testing.T) {
	for _, flag := range []string{"-min-corrupt", "-bdd-budget"} {
		code, out, errOut := runCase(t, "-exact", flag, "-1", "testdata/warn.bench")
		if code != exitInternal || out != "" || !strings.Contains(errOut, flag) {
			t.Errorf("%s -1: exit %d, stdout %q, stderr %q; want exit %d naming the flag",
				flag, code, out, errOut, exitInternal)
		}
	}
}

// -exact swaps the structural bounds for model-counted verdicts:
// warn.bench's single key bit feeds an output XOR, so the exact
// backend proves the leak as a tautology, counts the corrupting
// (input, key) pairs, and prints the BDD telemetry line.
func TestExactFlag(t *testing.T) {
	code, out, _ := runCase(t, "-exact", "testdata/warn.bench")
	if code != exitWarnings {
		t.Fatalf("exit %d, want %d\n%s", code, exitWarnings, out)
	}
	for _, want := range []string{
		"exact symbolic proof",
		"corrupts exactly 1 of 2 primary outputs",
		"exact: 1/1 key bits symbolic (0 budget fallbacks)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -exact output:\n%s", want, out)
		}
	}
}

// A starved node budget must degrade to the dataflow bounds — same
// findings as the plain run plus a fallback count in the telemetry —
// never crash or change the exit code.
func TestExactBudgetFallback(t *testing.T) {
	code, out, _ := runCase(t, "-exact", "-bdd-budget", "1", "testdata/warn.bench")
	if code != exitWarnings {
		t.Fatalf("exit %d, want %d\n%s", code, exitWarnings, out)
	}
	for _, want := range []string{
		"can corrupt at most", // structural message, not the exact one
		"exact: 0/1 key bits symbolic (1 budget fallbacks)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in fallback output:\n%s", want, out)
		}
	}
}

func TestExactJSON(t *testing.T) {
	code, out, _ := runCase(t, "-json", "-exact", "testdata/warn.bench", "testdata/clean.bench")
	if code != exitWarnings {
		t.Fatalf("exit %d, want %d", code, exitWarnings)
	}
	var reports []jsonReport
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("unparseable JSON: %v\n%s", err, out)
	}
	warn := reports[0]
	if warn.Exact == nil || len(warn.Exact.Bits) != 1 {
		t.Fatalf("warn.bench exact section: %+v", warn.Exact)
	}
	b := warn.Exact.Bits[0]
	// 2 PIs + 1 key bit; the output XOR flips for every (input, key)
	// pair, so all 8 pairs corrupt and all 4 input patterns distinguish.
	if !b.OK || b.CorruptCount != "8" || b.DistInputs != "4" || b.Rate != 1 {
		t.Fatalf("exact bit verdict: %+v", b)
	}
	// clean.bench has no key inputs, so the audit returns before the
	// symbolic backend runs and the section is absent.
	if clean := reports[1]; clean.Exact != nil {
		t.Fatalf("clean.bench exact section: %+v", clean.Exact)
	}
}

// The sweep gate must pass against the shipped circuits and lockers.
func TestSweepPasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep"}, &stdout, &stderr); code != exitClean {
		t.Fatalf("sweep exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitClean, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "0 violations") {
		t.Fatalf("missing sweep summary:\n%s", stdout.String())
	}
}
