package faultsim

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

func TestAllFaultsCount(t *testing.T) {
	// c17: 5 inputs + 6 NAND2 gates, each with 2 input pins.
	c := circuits.C17()
	faults := allFaults(c)
	// Outputs: 11 observed nodes (5 inputs + 6 gates) ×2 = 22;
	// input pins: 12 ×2 = 24. Total 46.
	if len(faults) != 46 {
		t.Fatalf("fault universe = %d, want 46", len(faults))
	}
}

func TestCollapseReducesFaults(t *testing.T) {
	c := circuits.C17()
	all := allFaults(c)
	col := CollapseFaults(c)
	if len(col) >= len(all) {
		t.Fatalf("collapsing did not reduce: %d vs %d", len(col), len(all))
	}
	// NAND gates keep only input s-a-1: 22 output faults + 12 input s-a-1.
	if len(col) != 34 {
		t.Fatalf("collapsed list = %d, want 34", len(col))
	}
}

func TestC17FullCoverageWithRandomPatterns(t *testing.T) {
	// c17 is fully testable; plenty of random patterns must reach 100%.
	c := circuits.C17()
	s, err := ForProgram(ir.MustCompile(c))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunRandom(CollapseFaults(c), 8, rng.New(1))
	if res.Coverage() != 100 {
		t.Fatalf("coverage = %.2f%%, want 100%% (remaining %v)", res.Coverage(), res.Remaining)
	}
}

func TestStuckOutputDetectedByObviousPattern(t *testing.T) {
	// y = AND(a, b): y s-a-0 is detected exactly by a=b=1.
	c := netlist.New("and2")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	y := c.MustAddGate(netlist.And, "y", a, b)
	c.MarkOutput(y)
	s, err := ForProgram(ir.MustCompile(c))
	if err != nil {
		t.Fatal(err)
	}
	f := Fault{Node: y, Pin: -1, SA1: false}
	hit, err := s.DetectsEach([]Fault{f}, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if !hit[0] {
		t.Fatal("a=b=1 must detect y s-a-0")
	}
	hit, err = s.DetectsEach([]Fault{f}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if hit[0] {
		t.Fatal("a=1,b=0 cannot detect y s-a-0 (output already 0)")
	}
}

func TestInputPinFault(t *testing.T) {
	// y = AND(a, b): pin-a s-a-1 is detected by a=0, b=1 (good 0, bad 1).
	c := netlist.New("and2")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	y := c.MustAddGate(netlist.And, "y", a, b)
	c.MarkOutput(y)
	s, _ := ForProgram(ir.MustCompile(c))
	f := Fault{Node: y, Pin: 0, SA1: true}
	hit, err := s.DetectsEach([]Fault{f}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if !hit[0] {
		t.Fatal("a=0,b=1 must detect pin-a s-a-1")
	}
	hit, err = s.DetectsEach([]Fault{f}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if hit[0] {
		t.Fatal("b=0 masks the pin fault")
	}
}

func TestRedundantFaultNeverDetected(t *testing.T) {
	// y = OR(a, AND(a, b)) is logically just a; the AND gate's effect is
	// absorbed, so AND-output s-a-0 is redundant.
	c := netlist.New("redundant")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	and := c.MustAddGate(netlist.And, "and", a, b)
	y := c.MustAddGate(netlist.Or, "y", a, and)
	c.MarkOutput(y)
	s, _ := ForProgram(ir.MustCompile(c))
	f := Fault{Node: and, Pin: -1, SA1: false}
	res := s.RunRandom([]Fault{f}, 16, rng.New(2))
	if res.Detected != 0 {
		t.Fatal("redundant fault reported detected")
	}
}

func TestFaultDroppingKeepsTotalsConsistent(t *testing.T) {
	c := circuits.RippleAdder(4)
	s, _ := ForProgram(ir.MustCompile(c))
	faults := CollapseFaults(c)
	res := s.RunRandom(faults, 4, rng.New(3))
	if res.Detected+len(res.Remaining) != res.Total {
		t.Fatalf("detected %d + remaining %d != total %d", res.Detected, len(res.Remaining), res.Total)
	}
	if res.Total != len(faults) {
		t.Fatalf("total %d != fault list %d", res.Total, len(faults))
	}
	if res.Coverage() < 90 {
		t.Fatalf("adder random coverage suspiciously low: %.2f%%", res.Coverage())
	}
}

func TestKeyInputsAreControllable(t *testing.T) {
	// A fault behind a key-controlled XOR must be detectable because key
	// inputs receive patterns like any other input.
	c := netlist.New("keyed")
	a, _ := c.AddInput("a")
	k, _ := c.AddKeyInput("keyinput0")
	x := c.MustAddGate(netlist.Xor, "x", a, k)
	c.MarkOutput(x)
	s, _ := ForProgram(ir.MustCompile(c))
	res := s.RunRandom(CollapseFaults(c), 4, rng.New(4))
	if res.Coverage() != 100 {
		t.Fatalf("keyed circuit coverage = %.2f%%, want 100%%", res.Coverage())
	}
}

func TestFaultString(t *testing.T) {
	if got := (Fault{Node: 3, Pin: -1, SA1: true}).String(); got != "n3 s-a-1" {
		t.Fatalf("String = %q", got)
	}
	if got := (Fault{Node: 3, Pin: 1, SA1: false}).String(); got != "n3.in1 s-a-0" {
		t.Fatalf("String = %q", got)
	}
}

func BenchmarkRandomFaultSimAdder16(b *testing.B) {
	c := circuits.RippleAdder(16)
	s, err := ForProgram(ir.MustCompile(c))
	if err != nil {
		b.Fatal(err)
	}
	faults := CollapseFaults(c)
	r := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRandom(faults, 4, r)
	}
}

func TestRunRandomWorkerCountInvariance(t *testing.T) {
	// Fault detection is independent per fault and the random patterns are
	// drawn once per block regardless of the pool size, so the campaign
	// result — counts and the order of Remaining — must be identical at
	// any worker count. The adder is large enough to cross the parallel
	// floor, so the fan-out path really runs.
	c := circuits.RippleAdder(48)
	faults := CollapseFaults(c)
	if len(faults) < parallelFaultFloor {
		t.Fatalf("test circuit too small to exercise the parallel path: %d faults", len(faults))
	}
	run := func(workers int) Result {
		s, err := ForProgram(ir.MustCompile(c))
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		return s.RunRandom(faults, 2, rng.New(17))
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.Total != serial.Total || got.Detected != serial.Detected {
			t.Fatalf("Workers=%d: detected %d/%d, serial %d/%d", w, got.Detected, got.Total, serial.Detected, serial.Total)
		}
		if len(got.Remaining) != len(serial.Remaining) {
			t.Fatalf("Workers=%d: %d remaining, serial %d", w, len(got.Remaining), len(serial.Remaining))
		}
		for i := range got.Remaining {
			if got.Remaining[i] != serial.Remaining[i] {
				t.Fatalf("Workers=%d: remaining[%d] = %v, serial %v", w, i, got.Remaining[i], serial.Remaining[i])
			}
		}
	}
}

// allFaults enumerates the uncollapsed fault universe, the reference
// CollapseFaults is checked against: two faults per gate
// output (for nodes with observers or marked as outputs) and two per gate
// input pin.
func allFaults(c *netlist.Circuit) []Fault {
	prog := ir.MustCompile(c)
	isPO := make([]bool, c.NumNodes())
	for _, o := range c.POs {
		isPO[o] = true
	}
	var faults []Fault
	for id, g := range c.Gates {
		if g.Type == netlist.Const0 || g.Type == netlist.Const1 {
			continue
		}
		if len(prog.FanoutSpan(id)) > 0 || isPO[id] {
			faults = append(faults, Fault{Node: id, Pin: -1, SA1: false}, Fault{Node: id, Pin: -1, SA1: true})
		}
		for pin := range g.Fanin {
			faults = append(faults, Fault{Node: id, Pin: pin, SA1: false}, Fault{Node: id, Pin: pin, SA1: true})
		}
	}
	return faults
}
