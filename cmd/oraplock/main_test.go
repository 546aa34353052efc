package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"orap/internal/bench"
	"orap/internal/circuits"
)

// runAsCommand is set in the environment of a re-executed test binary,
// which then runs main with its arguments instead of the tests.
const runAsCommand = "ORAPLOCK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// oraplock runs the command on args and returns its exit code and both
// streams.
func oraplock(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsCommand+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestUnknownNames passes a name that -lock or -protect does not know.
// The command must refuse it as a usage error before it parses the
// input netlist: exit 2, nothing on stdout, and the bad value and the
// valid names on stderr, which holds nothing else.
func TestUnknownNames(t *testing.T) {
	text, err := bench.FormatString(circuits.C17())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c17.bench")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := oraplock(t, "-in", path, "-keybits", "4")
	if code != 0 {
		t.Fatalf("known names: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, c := range []struct{ flag, valid string }{
		{"lock", "weighted, random, sarlock, antisat, ttlock"},
		{"protect", "basic, modified, none"},
	} {
		code, out, errOut := oraplock(t, "-in", path, "-keybits", "4", "-"+c.flag, "bogus")
		want := `oraplock: unknown -` + c.flag + ` "bogus"; valid names: ` + c.valid + "\n"
		if code != 2 || out != "" || errOut != want {
			t.Errorf("-%s bogus: exit %d, want 2 with empty stdout and stderr %q\nstdout:\n%s\nstderr:\n%s", c.flag, code, want, out, errOut)
		}
	}
}
