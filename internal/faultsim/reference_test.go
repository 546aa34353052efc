package faultsim

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// stuckWord is the word a stuck-at fault forces on its line.
func stuckWord(f Fault) uint64 {
	if f.SA1 {
		return ^uint64(0)
	}
	return 0
}

// refSimulate evaluates the whole program in Order into val, with the
// inputs set to in (in Program.Inputs order) and fault f's output or pin
// forced to its stuck value. A fault on Node -1 simulates the good
// circuit.
func refSimulate(prog *ir.Program, in []uint64, f Fault, val []uint64) {
	for i, id := range prog.Inputs {
		val[id] = in[i]
	}
	for _, id32 := range prog.Order {
		id := int(id32)
		if op := prog.Ops[id]; op != ir.OpInput {
			fan := prog.FaninSpan(id)
			val[id] = ir.EvalWord(op, len(fan), func(pin int) uint64 {
				if id == f.Node && pin == f.Pin {
					return stuckWord(f)
				}
				return val[fan[pin]]
			})
		}
		if id == f.Node && f.Pin < 0 {
			val[id] = stuckWord(f)
		}
	}
}

// refDetects reports, fault by fault, whether re-simulating the whole
// circuit with the fault forced changes some primary-output word.
func refDetects(prog *ir.Program, in []uint64, faults []Fault) []bool {
	good := make([]uint64, prog.NumNodes())
	bad := make([]uint64, prog.NumNodes())
	refSimulate(prog, in, Fault{Node: -1, Pin: -1}, good)
	hit := make([]bool, len(faults))
	for i, f := range faults {
		refSimulate(prog, in, f, bad)
		for _, o := range prog.POs {
			if bad[o] != good[o] {
				hit[i] = true
				break
			}
		}
	}
	return hit
}

// refRunRandom is RunRandom over refDetects: the same words drawn per
// block in Program.Inputs order, the same dropping and the same order
// of Remaining.
func refRunRandom(prog *ir.Program, faults []Fault, blocks int, r *rng.Stream) Result {
	live := append([]Fault(nil), faults...)
	res := Result{Total: len(faults)}
	in := make([]uint64, len(prog.Inputs))
	for b := 0; b < blocks && len(live) > 0; b++ {
		for i := range in {
			in[i] = r.Uint64()
		}
		hit := refDetects(prog, in, live)
		kept := live[:0]
		for i, f := range live {
			if hit[i] {
				res.Detected++
			} else {
				kept = append(kept, f)
			}
		}
		live = kept
	}
	res.Remaining = append([]Fault(nil), live...)
	return res
}

// referenceCircuits are the designs the event-driven walk is checked on:
// two small ones inside a single 64-position word, and two locked
// generated designs whose fault cones span many words.
func referenceCircuits(t *testing.T) []namedCircuit {
	t.Helper()
	generate := func(name string, scale float64) (benchgen.Profile, *netlist.Circuit) {
		prof, err := benchgen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof = prof.Scale(scale)
		c, err := benchgen.Generate(prof, 2020)
		if err != nil {
			t.Fatal(err)
		}
		return prof, c
	}
	b20, plain := generate("b20", 0.05)
	weighted, err := lock.Weighted(plain, lock.WeightedOptions{
		KeyBits:      b20.LFSRSize,
		ControlWidth: b20.CtrlInputs,
		Rand:         rng.New(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, plain = generate("s38417", 0.02)
	sarlock, err := lock.SARLock(plain, 16, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	return []namedCircuit{
		{"c17", circuits.C17()},
		{"adder8", circuits.RippleAdder(8)},
		{"b20-weighted", weighted.Circuit},
		{"s38417-sarlock16", sarlock.Circuit},
	}
}

type namedCircuit struct {
	name string
	c    *netlist.Circuit
}

// TestMatchesFullResimulation checks the event-driven fault walk against
// re-simulating the whole circuit per fault. Every fault of a campaign
// runs back to back on one simulator (per worker), so any state one
// fault's walk left behind would corrupt the faults after it.
func TestMatchesFullResimulation(t *testing.T) {
	const blocks = 6
	for _, tc := range referenceCircuits(t) {
		t.Run(tc.name, func(t *testing.T) {
			prog := ir.MustCompile(tc.c)
			faults := CollapseFaults(tc.c)
			want := refRunRandom(prog, faults, blocks, rng.New(11))
			for _, workers := range []int{1, 3} {
				s, err := ForProgram(prog)
				if err != nil {
					t.Fatal(err)
				}
				s.Workers = workers
				got := s.RunRandom(faults, blocks, rng.New(11))
				if got.Total != want.Total || got.Detected != want.Detected || len(got.Remaining) != len(want.Remaining) {
					t.Fatalf("Workers=%d: detected %d/%d with %d remaining, reference %d/%d with %d",
						workers, got.Detected, got.Total, len(got.Remaining), want.Detected, want.Total, len(want.Remaining))
				}
				for i := range got.Remaining {
					if got.Remaining[i] != want.Remaining[i] {
						t.Fatalf("Workers=%d: remaining[%d] = %v, reference %v", workers, i, got.Remaining[i], want.Remaining[i])
					}
				}
			}

			s, err := ForProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(12)
			pattern := make([]bool, len(prog.Inputs))
			in := make([]uint64, len(prog.Inputs))
			for k := 0; k < 3; k++ {
				r.Bits(pattern)
				for i, v := range pattern {
					in[i] = 0
					if v {
						in[i] = ^uint64(0)
					}
				}
				got, err := s.DetectsEach(faults, pattern)
				if err != nil {
					t.Fatal(err)
				}
				want := refDetects(prog, in, faults)
				for i := range faults {
					if got[i] != want[i] {
						t.Fatalf("pattern %d: DetectsEach(%v) = %v, reference %v", k, faults[i], got[i], want[i])
					}
				}
			}
		})
	}
}
