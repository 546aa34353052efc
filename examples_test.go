package orap_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/examples.golden from the current code")

// TestExamplesGolden builds every program under examples/ (the README
// quick start) once, runs each, and pins its stdout byte for byte, so a
// change to an API the examples call is checked where a reader of the
// README meets it. Regenerate with `go test -run ExamplesGolden -update .`
// only for a change that is meant to move an example's output.
func TestExamplesGolden(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	var b strings.Builder
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cmd := exec.Command(filepath.Join(bin, e.Name()))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("examples/%s: %v\nstderr:\n%s", e.Name(), err, stderr.String())
		}
		fmt.Fprintf(&b, "== examples/%s\n%s", e.Name(), stdout.String())
	}
	got := b.String()
	path := filepath.Join("testdata", "examples.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("example output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
