package synth

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/rng"
)

func TestOptimizeC17(t *testing.T) {
	m, err := optimize(circuits.C17())
	if err != nil {
		t.Fatal(err)
	}
	if m.Area <= 0 || m.Area > 12 {
		t.Fatalf("c17 optimized area = %d, implausible", m.Area)
	}
	if m.Delay <= 0 || m.Delay > 8 {
		t.Fatalf("c17 optimized delay = %d, implausible", m.Delay)
	}
}

func TestOverheadZeroForIdenticalCircuits(t *testing.T) {
	c := circuits.RippleAdder(8)
	ov, err := Compare(c, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ov.AreaPercent() != 0 || ov.DelayPercent() != 0 {
		t.Fatalf("identical circuits show overhead: %.2f%% / %.2f%%", ov.AreaPercent(), ov.DelayPercent())
	}
}

func TestOverheadPositiveForLockedCircuit(t *testing.T) {
	orig := circuits.RippleAdder(8)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 9, ControlWidth: 3, Rand: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := Compare(orig, l.Circuit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ov.AreaPercent() <= 0 {
		t.Fatalf("locked circuit shows no area overhead: %.2f%%", ov.AreaPercent())
	}
}

func TestExtraGatesCharged(t *testing.T) {
	c := circuits.RippleAdder(8)
	ov, err := Compare(c, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ov.AreaPercent() <= 0 {
		t.Fatal("extra register gates not charged to the area overhead")
	}
}

func TestDelayPercentClampedAtZero(t *testing.T) {
	// If optimization makes the "protected" circuit shallower, report 0%
	// as the paper does, not a negative overhead.
	ov := Overhead{
		Original:  Metrics{Area: 100, Delay: 20},
		Protected: Metrics{Area: 100, Delay: 18},
	}
	if ov.DelayPercent() != 0 {
		t.Fatalf("DelayPercent = %v, want 0", ov.DelayPercent())
	}
}

func TestOptimizationRemovesRedundancy(t *testing.T) {
	// optimize must see through duplicate logic: the same adder described
	// twice and ANDed output-wise is no bigger than described once plus
	// the combining gates.
	a := circuits.RippleAdder(4)
	single, err := optimize(a)
	if err != nil {
		t.Fatal(err)
	}
	// Lock with 0-effect: cloning should not change metrics.
	clone, err := optimize(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if single != clone {
		t.Fatal("optimize is not deterministic across clones")
	}
}
