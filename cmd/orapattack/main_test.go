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
	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// runAsCommand is set in the environment of a re-executed test binary,
// which then runs main with its arguments instead of the tests.
const runAsCommand = "ORAPATTACK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// orapattack runs the command on args and returns its exit code and
// both streams.
func orapattack(t *testing.T, args ...string) (int, string, string) {
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

// writeLockedB20 writes a b20@0.01 design and its 16-bit weighted lock
// to dir, returning both paths and the correct key as a 0/1 string.
func writeLockedB20(t *testing.T, dir string) (orig, locked, key string) {
	t.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchgen.Generate(prof.Scale(0.01), 2020)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lock.Weighted(c.Clone(), lock.WeightedOptions{KeyBits: 16, ControlWidth: 3, Rand: rng.New(2020)})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, c *netlist.Circuit) string {
		text, err := bench.FormatString(c)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("b20.bench", c), write("b20-locked.bench", l.Circuit), bits(l.Key)
}

// TestModifiedScanOracle runs the SAT attack through the scan chip of
// a design protected with the modified scheme. With four pin inputs and
// outputs the rest of the interface feeds flip-flops, so the chip
// builds and the attack converges on a key that is wrong: the scan
// oracle answers with the key register cleared. Without -pins every
// input is a pin, and the command refuses before synthesis.
func TestModifiedScanOracle(t *testing.T) {
	orig, locked, key := writeLockedB20(t, t.TempDir())
	args := []string{"-locked", locked, "-orig", orig, "-attack", "sat", "-oracle", "scan", "-protect", "modified", "-key", key}

	code, out, errOut := orapattack(t, append(args, "-pins", "4", "-pinouts", "4")...)
	if code != 0 {
		t.Fatalf("with -pins 4 -pinouts 4: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "key correct:   false") {
		t.Fatalf("with -pins 4 -pinouts 4: the attack should recover a wrong key:\n%s", out)
	}

	code, out, errOut = orapattack(t, args...)
	if code != 1 || !strings.Contains(errOut, "the modified scheme needs flip-flops: pass -pins/-pinouts") {
		t.Fatalf("without -pins: exit %d, want 1 with the flip-flop message\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestMalformedKey passes -key strings of the right length with one
// character that is not 0 or 1. The command must refuse them, naming
// the flag and the bit, instead of reading the character as 0 and
// attacking a chip unlocked with a wrong key.
func TestMalformedKey(t *testing.T) {
	orig, locked, key := writeLockedB20(t, t.TempDir())
	for _, c := range []struct {
		pos int
		ch  byte
	}{{0, 'x'}, {7, '2'}, {len(key) - 1, ' '}} {
		bad := key[:c.pos] + string(c.ch) + key[c.pos+1:]
		code, out, errOut := orapattack(t, "-locked", locked, "-orig", orig, "-oracle", "scan", "-key", bad)
		want := fmt.Sprintf("-key: bit %d is %q, want 0 or 1", c.pos, c.ch)
		if code != 1 || !strings.Contains(errOut, want) {
			t.Errorf("-key %q: exit %d, want 1 with %q\nstdout:\n%s\nstderr:\n%s", bad, code, want, out, errOut)
		}
	}
}

// TestKeyWidth runs -oracle scan with no -key, a -key one bit short
// and a -key one bit long. The command must refuse each as a usage
// error naming the locked design's key width (exit 2, nothing on
// stdout), as it refuses every other malformed command line, instead
// of reporting it as a failed run.
func TestKeyWidth(t *testing.T) {
	orig, locked, key := writeLockedB20(t, t.TempDir())
	want := fmt.Sprintf("-oracle scan needs -key with %d bits", len(key))
	for _, c := range []struct {
		name string
		args []string
	}{
		{"no -key", nil},
		{"short -key", []string{"-key", key[1:]}},
		{"long -key", []string{"-key", key + "0"}},
	} {
		args := append([]string{"-locked", locked, "-orig", orig, "-oracle", "scan"}, c.args...)
		code, out, errOut := orapattack(t, args...)
		if code != 2 || out != "" || !strings.Contains(errOut, want) {
			t.Errorf("%s: exit %d, want 2 with empty stdout and %q on stderr\nstdout:\n%s\nstderr:\n%s", c.name, code, want, out, errOut)
		}
	}
}

// TestUnknownNames passes a name that -attack, -oracle or -protect does
// not know. The command must refuse it as a usage error before it reads
// a netlist or prints anything: exit 2, nothing on stdout, and the bad
// value and the valid names on stderr.
func TestUnknownNames(t *testing.T) {
	orig, locked, key := writeLockedB20(t, t.TempDir())
	for _, c := range []struct{ flag, valid string }{
		{"attack", "sat, doubledip, appsat, hill, sensitize"},
		{"oracle", "comb, scan"},
		{"protect", "none, basic, modified"},
	} {
		code, out, errOut := orapattack(t, "-locked", locked, "-orig", orig, "-oracle", "scan", "-key", key, "-"+c.flag, "bogus")
		if code != 2 || out != "" || !strings.Contains(errOut, `"bogus"`) || !strings.Contains(errOut, c.valid) {
			t.Errorf("-%s bogus: exit %d, want 2 with empty stdout and %q on stderr\nstdout:\n%s\nstderr:\n%s", c.flag, code, c.valid, out, errOut)
		}
	}
}

// TestNumericFlags passes an iteration budget below 1 and pin counts
// below -1. The command must refuse them as usage errors naming the
// flag, instead of attacking with the 10,000-round default or with
// every input and output a pin.
func TestNumericFlags(t *testing.T) {
	orig, locked, key := writeLockedB20(t, t.TempDir())
	for _, c := range [][2]string{{"maxiter", "0"}, {"maxiter", "-3"}, {"pins", "-2"}, {"pinouts", "-5"}} {
		code, out, errOut := orapattack(t, "-locked", locked, "-orig", orig, "-oracle", "scan", "-key", key, "-"+c[0], c[1])
		if code != 2 || out != "" || !strings.Contains(errOut, "-"+c[0]+" must") {
			t.Errorf("-%s %s: exit %d, want 2 with empty stdout and the flag named on stderr\nstdout:\n%s\nstderr:\n%s", c[0], c[1], code, out, errOut)
		}
	}
}

// TestScanOnlyFlags passes -protect, -key, -pins or -pinouts without
// -oracle scan, once with -oracle comb and once with the oracle left at
// its default. The command must refuse each as a usage error naming the
// flag and -oracle scan (exit 2, nothing on stdout) instead of attacking
// the bare function and reporting the key correct. Under -oracle scan
// the same flags run, and only there does the output carry the
// scan-cycles line.
func TestScanOnlyFlags(t *testing.T) {
	orig, locked, key := writeLockedB20(t, t.TempDir())
	base := []string{"-locked", locked, "-orig", orig}
	for _, f := range [][2]string{{"protect", "basic"}, {"key", key}, {"pins", "4"}, {"pinouts", "4"}} {
		for _, oracle := range [][]string{nil, {"-oracle", "comb"}} {
			args := append(append(append([]string(nil), base...), oracle...), "-"+f[0], f[1])
			code, out, errOut := orapattack(t, args...)
			if code != 2 || out != "" || !strings.Contains(errOut, "-"+f[0]) || !strings.Contains(errOut, "-oracle scan") {
				t.Errorf("%v: exit %d, want 2 with empty stdout and -%s and -oracle scan on stderr\nstdout:\n%s\nstderr:\n%s", args[4:], code, f[0], out, errOut)
			}
		}
	}

	code, out, errOut := orapattack(t, append(base, "-oracle", "scan", "-protect", "basic", "-key", key)...)
	if code != 0 || !strings.Contains(out, "scan cycles:") {
		t.Errorf("-oracle scan -protect basic -key: exit %d, want 0 with a scan-cycles line\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	code, out, errOut = orapattack(t, base...)
	if code != 0 || strings.Contains(out, "scan cycles:") {
		t.Errorf("default comb oracle: exit %d, want 0 without a scan-cycles line\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
