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
const runAsCommand = "ORAPATPG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// orapatpg runs the command on args and returns its exit code and both
// streams.
func orapatpg(t *testing.T, args ...string) (int, string, string) {
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

// A negative -conflicts or -workers is a usage error, rather than the
// high-effort default or all cores.
func TestNegativeFlags(t *testing.T) {
	for _, c := range [][2]string{{"conflicts", "-5"}, {"workers", "-1"}} {
		code, out, errOut := orapatpg(t, "-gen", "b20", "-scale", "0.01", "-"+c[0], c[1])
		if code != 2 || out != "" || !strings.Contains(errOut, "-"+c[0]+" must not be negative") {
			t.Errorf("-%s %s: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", c[0], c[1], code, out, errOut)
		}
	}
}

// A negative -randblocks is a usage error; 0 skips the random phase.
func TestRandBlocks(t *testing.T) {
	code, out, errOut := orapatpg(t, "-gen", "b20", "-scale", "0.01", "-randblocks", "-5")
	if code != 2 || out != "" || !strings.Contains(errOut, "-randblocks") {
		t.Fatalf("-randblocks -5: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", code, out, errOut)
	}
	code, out, errOut = orapatpg(t, "-gen", "b20", "-scale", "0.01", "-randblocks", "0")
	if code != 0 {
		t.Fatalf("-randblocks 0: exit %d; stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "random phase: 0/") || !strings.Contains(out, "fault coverage:") {
		t.Errorf("-randblocks 0: stdout lacks an empty random phase and a coverage line:\n%s", out)
	}
}

// A -scale outside (0, 1] is a usage error naming the flag and the
// range, not a generated profile at another scale.
func TestScaleRange(t *testing.T) {
	for _, v := range []string{"0", "-1", "2"} {
		code, out, errOut := orapatpg(t, "-gen", "b20", "-scale", v)
		if code != 2 || out != "" || !strings.Contains(errOut, "-scale") || !strings.Contains(errOut, "(0, 1]") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 2 naming the flag and its range", v, code, out, errOut)
		}
	}
}

// -gen and an explicit -scale describe a generated circuit, so passing
// either with -in (or -scale without -gen) is a usage error naming the
// flags, not a run that silently ignores one of them.
func TestInputFlagConflicts(t *testing.T) {
	const clean = "../../internal/check/testdata/clean.bench"
	for _, c := range []struct {
		args  []string
		flags []string
	}{
		{[]string{"-in", clean, "-gen", "nosuch"}, []string{"-in", "-gen"}},
		{[]string{"-in", clean, "-scale", "0.5"}, []string{"-scale", "-gen"}},
		{[]string{"-scale", "0.5"}, []string{"-scale", "-gen"}},
	} {
		code, out, errOut := orapatpg(t, c.args...)
		ok := code == 2 && out == ""
		for _, f := range c.flags {
			ok = ok && strings.Contains(errOut, f)
		}
		if !ok {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %v", c.args, code, out, errOut, c.flags)
		}
	}
	if code, _, errOut := orapatpg(t, "-in", clean); code != 0 {
		t.Errorf("-in %s: exit %d; stderr: %s", clean, code, errOut)
	}
}
