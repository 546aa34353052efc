// Golden pin of the checker's rendered diagnostics. Lives in the
// external test package because the locked designs come from lock,
// which sits above check in the import graph.
package check_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orap/internal/check"
	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/diagnostics.golden from the current code")

// defectFixtures builds circuits with structural defects the .bench
// syntax cannot express, each mutated behind AddGate's back.
func defectFixtures() []*netlist.Circuit {
	// base returns a sound two-input circuit: g = AND(a, b), y = NOT(g).
	base := func(name string) (c *netlist.Circuit, a, b, g, y int) {
		c = netlist.New(name)
		a, _ = c.AddInput("a")
		b, _ = c.AddInput("b")
		g = c.MustAddGate(netlist.And, "g", a, b)
		y = c.MustAddGate(netlist.Not, "y", g)
		c.MarkOutput(y)
		return
	}
	var out []*netlist.Circuit

	c, a, _, g, y := base("back-edge-cycle")
	c.Gates[g].Fanin[1] = y // g = AND(a, y), y = NOT(g)
	out = append(out, c)

	c, _, _, _, _ = base("orphan-input")
	c.Gates = append(c.Gates, netlist.Gate{Type: netlist.Input})
	out = append(out, c)

	c, _, _, g, _ = base("and-one-fanin")
	c.Gates[g].Fanin = c.Gates[g].Fanin[:1]
	out = append(out, c)

	c, a, _, _, y = base("not-two-fanins")
	c.Gates[y].Fanin = append(c.Gates[y].Fanin, a)
	out = append(out, c)

	c, a, _, g, _ = base("out-of-range-fanin")
	c.Gates[g].Fanin = []int{a, 99}
	out = append(out, c)

	c, _, _, _, _ = base("out-of-range-po")
	c.POs = append(c.POs, 42)
	out = append(out, c)

	c, _, _, g, _ = base("gate-in-pis")
	c.PIs = append(c.PIs, g)
	out = append(out, c)

	c, _, _, _, _ = base("out-of-range-key")
	c.Keys = append(c.Keys, 77)
	out = append(out, c)

	c, _, _, g, _ = base("unknown-type")
	c.Gates[g].Type = netlist.GateType(200)
	out = append(out, c)

	c, a, _, g, y = base("two-arity")
	c.Gates[g].Fanin = c.Gates[g].Fanin[:1]
	c.Gates[y].Fanin = append(c.Gates[y].Fanin, a)
	out = append(out, c)

	// An arity defect hides a cycle: the cycle search never runs.
	c, a, _, g, y = base("arity-and-cycle")
	c.Gates[g].Fanin[1] = y
	c.Gates[y].Fanin = append(c.Gates[y].Fanin, a)
	out = append(out, c)

	// An undriven net does not: both defects are reported.
	c, _, _, g, y = base("undriven-and-cycle")
	c.Gates[g].Fanin[1] = y
	c.Gates = append(c.Gates, netlist.Gate{Type: netlist.Input})
	out = append(out, c)

	return out
}

// lockedFixture is one design locked by one scheme, or the scheme's
// refusal to lock it.
type lockedFixture struct {
	name string
	c    *netlist.Circuit
	err  error
}

// lockedFixtures locks every shipped design with each of the five
// schemes at seed 2020.
func lockedFixtures() []lockedFixture {
	designs := []*netlist.Circuit{
		circuits.C17(), circuits.FullAdder(), circuits.RippleAdder(4),
		circuits.Parity(8), circuits.Comparator4(), circuits.Mux21(),
	}
	schemes := []struct {
		name string
		lock func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error)
	}{
		{"randomxor", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 3, r) }},
		{"weighted", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
			return lock.Weighted(c, lock.WeightedOptions{KeyBits: 6, ControlWidth: 3, Rand: r})
		}},
		{"sarlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 3, r) }},
		{"antisat", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 4, r) }},
		{"ttlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.TTLock(c, 3, r) }},
	}
	var out []lockedFixture
	for _, d := range designs {
		for _, s := range schemes {
			l, err := s.lock(d.Clone(), rng.New(2020))
			f := lockedFixture{name: d.Name + "/" + s.name, err: err}
			if err == nil {
				f.c = l.Circuit
			}
			out = append(out, f)
		}
	}
	return out
}

// renderDiagnostics renders check's report text for the testdata
// corpus, the hand-built defects and the locked designs.
func renderDiagnostics(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	files, err := filepath.Glob(filepath.Join("testdata", "*.bench"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus found: %v", err)
	}
	for _, path := range files {
		_, rep, err := check.File(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== file %s\n%s", path, rep)
	}
	for _, c := range defectFixtures() {
		fmt.Fprintf(&b, "== defect %s\n%s", c.Name, check.Circuit(c))
	}
	for _, f := range lockedFixtures() {
		if f.err != nil {
			fmt.Fprintf(&b, "== locked %s: %v\n", f.name, f.err)
			continue
		}
		fmt.Fprintf(&b, "== locked %s\n%s", f.name, check.Circuit(f.c))
	}
	return b.String()
}

// TestDiagnosticsGolden pins check's rendered report text byte for
// byte. Regenerate with `go test ./internal/check -run
// DiagnosticsGolden -update` only for a change that is meant to move a
// diagnostic.
func TestDiagnosticsGolden(t *testing.T) {
	got := renderDiagnostics(t)
	path := filepath.Join("testdata", "diagnostics.golden")
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
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
