package benchgen

import (
	"math/bits"
	"testing"

	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/rng"
	"orap/internal/sim"
)

func TestProfilesMatchTableI(t *testing.T) {
	// Output counts must reproduce Table I column 3 exactly.
	want := map[string]int{
		"s38417": 1742, "s38584": 1730, "b17": 1512, "b18": 3343,
		"b19": 6672, "b20": 512, "b21": 512, "b22": 757,
	}
	for _, p := range Profiles {
		if got := p.Outputs(); got != want[p.Name] {
			t.Errorf("%s outputs = %d, want %d", p.Name, got, want[p.Name])
		}
	}
}

func TestGenerateSmallProfilesShape(t *testing.T) {
	for _, name := range []string{"b20", "s38417"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Scale(0.02)
		c, err := Generate(p, 42)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumInputs() != p.Inputs() {
			t.Errorf("%s: inputs %d, want %d", p.Name, c.NumInputs(), p.Inputs())
		}
		if c.NumOutputs() != p.Outputs() {
			t.Errorf("%s: outputs %d, want %d", p.Name, c.NumOutputs(), p.Outputs())
		}
		gc := c.GateCount()
		// Reducer gates that absorb surplus sinks add a few percent on
		// top of the profile target.
		if gc < p.Gates || gc > p.Gates+p.Gates/8+p.Outputs() {
			t.Errorf("%s: gate count %d outside [%d, %d]", p.Name, gc, p.Gates, p.Gates+p.Gates/8+p.Outputs())
		}
		if _, err := ir.Compile(c); err != nil {
			t.Errorf("%s: invalid: %v", p.Name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("b20")
	p = p.Scale(0.02)
	a, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("same seed produced different node counts")
	}
	for id := range a.Gates {
		if a.Gates[id].Type != b.Gates[id].Type || len(a.Gates[id].Fanin) != len(b.Gates[id].Fanin) {
			t.Fatalf("node %d differs between same-seed generations", id)
		}
		for i := range a.Gates[id].Fanin {
			if a.Gates[id].Fanin[i] != b.Gates[id].Fanin[i] {
				t.Fatalf("node %d fanin differs", id)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	p, _ := ProfileByName("b20")
	p = p.Scale(0.02)
	a, _ := Generate(p, 1)
	b, _ := Generate(p, 2)
	same := true
	if a.NumNodes() != b.NumNodes() {
		same = false
	} else {
		for id := range a.Gates {
			if a.Gates[id].Type != b.Gates[id].Type {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced structurally identical circuits")
	}
}

func TestGeneratedCircuitHasNoDeadLogic(t *testing.T) {
	p, _ := ProfileByName("b21")
	p = p.Scale(0.02)
	c, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Circuit(c)
	if dead := append(rep.ByRule(check.RuleDangling), rep.ByRule(check.RuleDeadCone)...); len(dead) != 0 {
		t.Fatalf("%d dangling nodes in generated circuit:\n%s", len(dead), rep)
	}
}

func TestGeneratedCircuitIsResponsive(t *testing.T) {
	// Outputs must actually toggle under random inputs (no stuck logic).
	p, _ := ProfileByName("b20")
	p = p.Scale(0.02)
	c, err := Generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.ForProgram(ir.MustCompile(c), 4)
	if err != nil {
		t.Fatal(err)
	}
	par.RandomizeInputs(rng.New(5))
	par.Run()
	toggling := 0
	for _, o := range c.POs {
		w := par.Value(o)
		ones := 0
		for _, x := range w {
			ones += bits.OnesCount64(x)
		}
		if ones > 0 && ones < 256 {
			toggling++
		}
	}
	if toggling < c.NumOutputs()/2 {
		t.Fatalf("only %d/%d outputs toggle under random patterns", toggling, c.NumOutputs())
	}
}

func TestScaleReducesEverything(t *testing.T) {
	p, _ := ProfileByName("b19")
	s := p.Scale(0.01)
	if s.Gates >= p.Gates || s.FFs >= p.FFs {
		t.Fatal("Scale did not shrink the profile")
	}
	if s.Scale(1.5).Gates != s.Gates {
		t.Fatal("Scale(>1) should be identity")
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestGenerateFullScaleB20(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	p, _ := ProfileByName("b20")
	c, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumOutputs() != 512 || c.GateCount() < 17648 {
		t.Fatalf("b20 shape wrong: %s", ir.MustCompile(c).Summary())
	}
}
