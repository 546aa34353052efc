package main

import (
	"strings"
	"testing"
)

// -explain appends a witness path to each key-anchored finding; the
// fixture's leaking XOR must show the key input, the anchored output
// and the Anti proof along the path.
func TestExplainFlag(t *testing.T) {
	code, out, _ := runCase(t, "-explain", "testdata/warn.bench")
	if code != exitWarnings {
		t.Fatalf("exit %d, want %d\n%s", code, exitWarnings, out)
	}
	if !strings.Contains(out, "witness path (key bit 0 -> o1)") {
		t.Fatalf("missing witness path header:\n%s", out)
	}
	if !strings.Contains(out, "keyinput0") || !strings.Contains(out, "anti") {
		t.Fatalf("witness path missing the key input or the Anti proof:\n%s", out)
	}
	if !strings.Contains(out, "[key-leak]") {
		t.Fatalf("warn.bench must key-leak through its XOR output:\n%s", out)
	}
}

// Repeated runs must produce byte-identical output in every mode — the
// deterministic-ordering contract of the report sort.
func TestOutputDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"testdata/warn.bench", "testdata/clean.bench"},
		{"-json", "testdata/warn.bench"},
		{"-explain", "testdata/warn.bench"},
	} {
		code1, out1, _ := runCase(t, args...)
		code2, out2, _ := runCase(t, args...)
		if code1 != code2 || out1 != out2 {
			t.Fatalf("%v: runs differ (%d vs %d):\n%s\n---\n%s", args, code1, code2, out1, out2)
		}
	}
}

// -explain only inserts indented witness-path lines: with them removed
// the output must equal the plain report, trailer lines included, with
// and without -exact.
func TestExplainKeepsPlainOutput(t *testing.T) {
	paths := []string{"testdata/clean.bench", "testdata/err.bench", "testdata/warn.bench", generatedDesign(t)}
	for _, path := range paths {
		for _, mode := range [][]string{{}, {"-exact"}} {
			_, plain, _ := runCase(t, append(mode, path)...)
			_, explained, _ := runCase(t, append(mode, "-explain", path)...)
			var kept []string
			for _, line := range strings.SplitAfter(explained, "\n") {
				if !strings.HasPrefix(line, "  ") {
					kept = append(kept, line)
				}
			}
			if got := strings.Join(kept, ""); got != plain {
				t.Errorf("%v %s: -explain without witness lines differs from plain output:\n--- explain ---\n%s\n--- plain ---\n%s",
					mode, path, got, plain)
			}
		}
	}
}
