package atpg

import (
	"fmt"
	"testing"

	"orap/internal/circuits"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

func TestGenerateDetectsTestableFault(t *testing.T) {
	c := circuits.C17()
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := faultsim.ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	cam := newCampaign(prog, Options{})
	for _, f := range faultsim.CollapseFaults(c) {
		out, err := cam.target(f)
		if err != nil {
			t.Fatal(err)
		}
		if out.Class != Detected {
			t.Fatalf("fault %v classified %v; c17 has no redundant faults", f, out.Class)
		}
		hit, err := sim.DetectsWithPattern(f, out.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("generated pattern %v does not detect %v", out.Pattern, f)
		}
	}
}

func TestGenerateProvesRedundancy(t *testing.T) {
	// y = OR(a, AND(a, b)): AND-output s-a-0 is redundant (absorption).
	c := netlist.New("red")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	and := c.MustAddGate(netlist.And, "and", a, b)
	y := c.MustAddGate(netlist.Or, "y", a, and)
	c.MarkOutput(y)
	cam := newCampaign(ir.MustCompile(c), Options{})
	out, err := cam.target(faultsim.Fault{Node: and, Pin: -1, SA1: false})
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != Redundant {
		t.Fatalf("absorbed fault classified %v, want redundant", out.Class)
	}
	// The same gate's s-a-1 is testable (a=0, b arbitrary → y flips).
	out, err = cam.target(faultsim.Fault{Node: and, Pin: -1, SA1: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != Detected {
		t.Fatalf("testable fault classified %v", out.Class)
	}
}

func TestGenerateUnobservableFault(t *testing.T) {
	// A gate with no path to an output is structurally redundant.
	c := netlist.New("dead")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	dead := c.MustAddGate(netlist.And, "dead", a, b)
	y := c.MustAddGate(netlist.Or, "y", a, b)
	c.MarkOutput(y)
	out, err := newCampaign(ir.MustCompile(c), Options{}).target(faultsim.Fault{Node: dead, Pin: -1, SA1: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != Redundant {
		t.Fatalf("unobservable fault classified %v", out.Class)
	}
}

func TestRunFullFlowC17(t *testing.T) {
	c := circuits.C17()
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := faultsim.ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	faults := faultsim.CollapseFaults(c)
	// Deliberately weak random phase so ATPG has faults left to target.
	rand := sim.RunRandom(faults, 1, rng.New(1))
	sum, err := Run(c, sim, rand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coverage() != 100 {
		t.Fatalf("c17 coverage = %.2f%%, want 100%%", sum.Coverage())
	}
	if sum.RedundantPlusAborted() != 0 {
		t.Fatalf("c17 red+abrt = %d, want 0", sum.RedundantPlusAborted())
	}
	if sum.Detected != sum.Total {
		t.Fatalf("detected %d != total %d", sum.Detected, sum.Total)
	}
}

func TestRunFlowOnLockedCircuitKeyInputsControllable(t *testing.T) {
	// Table II's premise: with key inputs scannable, the locked circuit
	// stays (at least) as testable as the original. On small circuits
	// both reach full coverage.
	orig := circuits.RippleAdder(4)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 6, ControlWidth: 3, KeyGates: 4, Rand: rng.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*netlist.Circuit{orig, l.Circuit} {
		prog, err := ir.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := faultsim.ForProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		faults := faultsim.CollapseFaults(c)
		rand := sim.RunRandom(faults, 2, rng.New(3))
		sum, err := Run(c, sim, rand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Coverage() < 100 {
			t.Fatalf("%s coverage = %.2f%% (red=%d abrt=%d)", c.Name, sum.Coverage(), sum.Redundant, sum.Aborted)
		}
	}
}

// reversedParityMiter XORs two n-input parity chains that sum the same
// inputs in opposite orders. Its output is constant 0, so the output's
// s-a-0 fault is redundant, but proving it means proving the chains
// equivalent, which takes the solver conflicts under the D-chain as under
// the XOR miter.
func reversedParityMiter(n int) (*netlist.Circuit, faultsim.Fault) {
	c := netlist.New("parity-miter")
	xs := make([]int, n)
	for i := range xs {
		xs[i], _ = c.AddInput(fmt.Sprintf("x%d", i))
	}
	up, down := xs[0], xs[n-1]
	for i := 1; i < n; i++ {
		up = c.MustAddGate(netlist.Xor, fmt.Sprintf("u%d", i), up, xs[i])
		down = c.MustAddGate(netlist.Xor, fmt.Sprintf("d%d", i), down, xs[n-1-i])
	}
	y := c.MustAddGate(netlist.Xor, "y", up, down)
	c.MarkOutput(y)
	return c, faultsim.Fault{Node: y, Pin: -1, SA1: false}
}

func TestAbortedOnTinyBudget(t *testing.T) {
	c, f := reversedParityMiter(8)
	prog := ir.MustCompile(c)
	out, err := newCampaign(prog, Options{ConflictBudget: 1}).target(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != Aborted {
		t.Fatalf("%v at a 1-conflict budget classified %v, want aborted", f, out.Class)
	}
	cam := newCampaign(prog, Options{})
	out, err = cam.target(f)
	if err != nil {
		t.Fatal(err)
	}
	if conflicts := cam.s.Stats().Conflicts; out.Class != Redundant || conflicts <= 1 {
		t.Fatalf("%v at the default budget: %v after %d conflicts, want redundant after more than one",
			f, out.Class, conflicts)
	}

	// A whole campaign at that budget: every fault is still accounted
	// for exactly once.
	sim, err := faultsim.ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	rand := sim.RunRandom(faultsim.CollapseFaults(c), 0, rng.New(1))
	sum, err := Run(c, sim, rand, Options{ConflictBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Aborted == 0 {
		t.Fatalf("no fault aborted at a 1-conflict budget: %+v", sum)
	}
	if sum.Detected+sum.Redundant+sum.Aborted != sum.Total {
		t.Fatalf("detected %d + redundant %d + aborted %d != total %d",
			sum.Detected, sum.Redundant, sum.Aborted, sum.Total)
	}
}

// TestConflictBudgetPerFault targets the parity miter's redundant fault
// three times on one campaign whose budget covers one proof (about 260
// conflicts) but not two. The solver's MaxConflicts bounds its lifetime,
// so the campaign must move it on per fault, or the later proofs abort.
func TestConflictBudgetPerFault(t *testing.T) {
	c, f := reversedParityMiter(8)
	cam := newCampaign(ir.MustCompile(c), Options{ConflictBudget: 300})
	for i := 0; i < 3; i++ {
		out, err := cam.target(f)
		if err != nil {
			t.Fatal(err)
		}
		if out.Class != Redundant {
			t.Fatalf("target %d of %v: %v after %d conflicts in all, want redundant", i, f, out.Class, cam.s.Stats().Conflicts)
		}
	}
	if n := cam.s.Stats().Conflicts; n <= 2*300 {
		t.Fatalf("three proofs took %d conflicts, not past two budgets; the test proves nothing", n)
	}
}

func TestClassString(t *testing.T) {
	if Detected.String() != "detected" || Redundant.String() != "redundant" || Aborted.String() != "aborted" {
		t.Fatal("class names wrong")
	}
}
