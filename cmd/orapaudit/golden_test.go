package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orap/internal/bench"
	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cli.golden from the current code")

// generatedDesign writes a fixed-seed benchgen design locked with 70
// random XOR key bits (more than one 64-bit word of key lanes) to a
// temporary .bench file and returns its path.
func generatedDesign(t *testing.T) string {
	t.Helper()
	prof, err := benchgen.ProfileByName("s38417")
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchgen.Generate(prof.Scale(0.01), 2020)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lock.RandomXOR(c, 70, rng.New(2020))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := bench.Format(&text, l.Circuit); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.bench")
	if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// renderCLI runs the text and JSON modes over the testdata corpus and
// the plain and -explain modes over the generated design, recording
// each invocation's exit code and stdout. The generated design's
// temporary path is replaced by a fixed name.
func renderCLI(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	record := func(path, name string, args ...string) {
		code, out, _ := runCase(t, append(args, path)...)
		out = strings.ReplaceAll(out, path, name)
		fmt.Fprintf(&b, "== orapaudit %s (exit %d)\n%s", strings.Join(append(args, name), " "), code, out)
	}
	for _, path := range []string{"testdata/clean.bench", "testdata/err.bench", "testdata/warn.bench"} {
		for _, args := range [][]string{{}, {"-exact"}, {"-explain"}, {"-exact", "-explain"}, {"-json"}} {
			record(path, path, args...)
		}
	}
	gen := generatedDesign(t)
	record(gen, "s38417@0.01-randomxor70.bench")
	record(gen, "s38417@0.01-randomxor70.bench", "-explain")
	return b.String()
}

// TestCLIGolden pins orapaudit's rendered output byte for byte.
// Regenerate with `go test ./cmd/orapaudit -run CLIGolden -update` only
// for a change that is meant to move the output.
func TestCLIGolden(t *testing.T) {
	got := renderCLI(t)
	path := filepath.Join("testdata", "cli.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("orapaudit output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
