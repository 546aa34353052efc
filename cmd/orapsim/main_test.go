package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"orap/internal/bench"
	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/rng"
)

// runAsCommand is set in the environment of a re-executed test binary,
// which then runs main with its arguments instead of the tests.
const runAsCommand = "ORAPSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// orapsim runs the command on args and returns its exit code and both
// streams.
func orapsim(t *testing.T, args ...string) (int, string, string) {
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

// TestMalformedBits passes a -key or -query string of the right length
// with one character that is not 0 or 1. The command must refuse it,
// naming the flag and the bit, instead of reading the character as 0:
// a mistyped key would unlock the chip with a wrong key, and a mistyped
// query would scan in a pattern nobody asked for.
func TestMalformedBits(t *testing.T) {
	l, err := lock.RandomXOR(circuits.C17(), 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	text, err := bench.FormatString(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c17-locked.bench")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	key := bits(l.Key)

	code, out, errOut := orapsim(t, "-locked", path, "-key", key, "-query", "01101")
	if code != 0 {
		t.Fatalf("well-formed flags: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, c := range []struct {
		flag  string
		args  []string
		pos   int
		ch    byte
		input string
	}{
		{"key", nil, 2, 'x', key},
		{"query", []string{"-key", key}, 4, '2', "01101"},
	} {
		bad := c.input[:c.pos] + string(c.ch) + c.input[c.pos+1:]
		args := append([]string{"-locked", path, "-" + c.flag, bad}, c.args...)
		code, out, errOut := orapsim(t, args...)
		want := fmt.Sprintf("-%s: bit %d is %q, want 0 or 1", c.flag, c.pos, c.ch)
		if code != 1 || !strings.Contains(errOut, want) {
			t.Errorf("-%s %q: exit %d, want 1 with %q\nstdout:\n%s\nstderr:\n%s", c.flag, bad, code, want, out, errOut)
		}
	}
}

// TestUnknownNames passes a name that -protect or -trojan does not
// know. The command must refuse it as a usage error before it reads the
// netlist or prints the chip line: exit 2, nothing on stdout, and the
// bad value and the valid names on stderr.
func TestUnknownNames(t *testing.T) {
	l, err := lock.RandomXOR(circuits.C17(), 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	text, err := bench.FormatString(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c17-locked.bench")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ flag, valid string }{
		{"protect", "none, basic, modified"},
		{"trojan", "suppress, shadow, freeze"},
	} {
		code, out, errOut := orapsim(t, "-locked", path, "-key", bits(l.Key), "-"+c.flag, "bogus")
		if code != 2 || out != "" || !strings.Contains(errOut, `"bogus"`) || !strings.Contains(errOut, c.valid) {
			t.Errorf("-%s bogus: exit %d, want 2 with empty stdout and %q on stderr\nstdout:\n%s\nstderr:\n%s", c.flag, code, c.valid, out, errOut)
		}
	}
}

// TestNegativeFlags passes -pins or -pinouts below -1. The command must
// refuse it as a usage error right after flag parsing, exit 2 with
// empty stdout and the flag named on stderr, rather than read it as -1.
func TestNegativeFlags(t *testing.T) {
	l, err := lock.RandomXOR(circuits.C17(), 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	text, err := bench.FormatString(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c17-locked.bench")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]string{{"pins", "-7"}, {"pinouts", "-2"}} {
		code, out, errOut := orapsim(t, "-locked", path, "-key", bits(l.Key), "-"+c[0], c[1])
		if code != 2 || out != "" || !strings.Contains(errOut, "-"+c[0]+" must") {
			t.Errorf("-%s %s: exit %d, want 2 with empty stdout and the flag named on stderr\nstdout:\n%s\nstderr:\n%s", c[0], c[1], code, out, errOut)
		}
	}
}
