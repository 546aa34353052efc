package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runAsCommand is set in the environment of a re-executed test binary,
// which then runs main with its arguments instead of the tests.
const runAsCommand = "ORAPBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// orapbench runs the command on args and returns its exit code and both
// streams.
func orapbench(t *testing.T, args ...string) (int, string, string) {
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

// An unknown -table name is a usage error that names the valid tables,
// not a silent run of nothing.
func TestUnknownTable(t *testing.T) {
	code, out, errOut := orapbench(t, "-table", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut)
	}
	if out != "" {
		t.Errorf("stdout = %q, want nothing", out)
	}
	if !strings.Contains(errOut, `"bogus"`) || !strings.Contains(errOut, strings.Join(tables, ", ")) {
		t.Errorf("stderr = %q, want the bad name and the valid tables", errOut)
	}
}

// A -scale outside (0, 1] is a usage error naming the flag and the
// range, for the tables and the preflight alike; Table I and II would
// otherwise run at paper scale.
func TestScaleRange(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "1", "-circuits", "s38417", "-scale", "0"},
		{"-table", "2", "-circuits", "s38417", "-scale", "-1"},
		{"-table", "1", "-circuits", "s38417", "-scale", "2"},
		{"-check", "-circuits", "b20", "-scale", "0"},
	} {
		code, out, errOut := orapbench(t, args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "-scale") || !strings.Contains(errOut, "(0, 1]") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming the flag and its range", args, code, out, errOut)
		}
	}
}

// TestNegativeFlags passes a negative -patterns or -workers. The command
// must refuse it as a usage error right after flag parsing, exit 2 with
// empty stdout and the flag named on stderr, rather than run the default
// pattern count or all cores.
func TestNegativeFlags(t *testing.T) {
	for _, c := range [][2]string{{"patterns", "-5"}, {"workers", "-1"}} {
		code, out, errOut := orapbench(t, "-table", "1", "-circuits", "s38417", "-scale", "0.01", "-"+c[0], c[1])
		if code != 2 || out != "" || !strings.Contains(errOut, "-"+c[0]+" must") {
			t.Errorf("-%s %s: exit %d, want 2 with empty stdout and the flag named on stderr\nstdout:\n%s\nstderr:\n%s", c[0], c[1], code, out, errOut)
		}
	}
}
