// Package benchgen deterministically generates synthetic combinational
// circuits at the scale of the paper's benchmark suite.
//
// The real ISCAS'89 and ITC'99 netlists are not redistributable with this
// repository, so each named benchmark is replaced by a random levelized
// DAG matching the published interface of its combinational part: primary
// input count (pins + flip-flop outputs), primary output count (pins +
// flip-flop inputs), and the gate count (excluding inverters) reported in
// Table I. The experiments depend on circuit *scale* — gate and output
// counts drive Hamming-distance statistics, relative overheads, and ATPG
// effort — which the generator reproduces; see DESIGN.md for the
// substitution argument.
package benchgen

import (
	"fmt"
	"sort"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// Profile describes a benchmark's combinational-part interface.
type Profile struct {
	// Name is the benchmark name (s38417, b17, …).
	Name string
	// Pins is the number of package-pin primary inputs.
	Pins int
	// FFs is the number of flip-flops (pseudo PI/PO pairs).
	FFs int
	// PinOuts is the number of package-pin primary outputs.
	PinOuts int
	// Gates is the target gate count excluding inverters (Table I col 2).
	Gates int
	// LFSRSize and CtrlInputs mirror Table I columns 4 and 5.
	LFSRSize   int
	CtrlInputs int
}

// inputs returns the combinational input count (pins + FF outputs).
func (p Profile) inputs() int { return p.Pins + p.FFs }

// outputs returns the combinational output count (pin outputs + FF inputs).
func (p Profile) outputs() int { return p.PinOuts + p.FFs }

// Profiles lists the paper's Table I benchmarks with their published
// interfaces (PI/FF/PO counts from the ISCAS'89 / ITC'99 documentation,
// gate and output counts from Table I itself).
var Profiles = []Profile{
	{Name: "s38417", Pins: 28, FFs: 1636, PinOuts: 106, Gates: 8709, LFSRSize: 256, CtrlInputs: 3},
	{Name: "s38584", Pins: 38, FFs: 1426, PinOuts: 304, Gates: 11448, LFSRSize: 186, CtrlInputs: 3},
	{Name: "b17", Pins: 37, FFs: 1415, PinOuts: 97, Gates: 29267, LFSRSize: 256, CtrlInputs: 3},
	{Name: "b18", Pins: 36, FFs: 3320, PinOuts: 23, Gates: 97569, LFSRSize: 97, CtrlInputs: 5},
	{Name: "b19", Pins: 24, FFs: 6642, PinOuts: 30, Gates: 196855, LFSRSize: 208, CtrlInputs: 5},
	{Name: "b20", Pins: 32, FFs: 490, PinOuts: 22, Gates: 17648, LFSRSize: 236, CtrlInputs: 3},
	{Name: "b21", Pins: 32, FFs: 490, PinOuts: 22, Gates: 17972, LFSRSize: 229, CtrlInputs: 3},
	{Name: "b22", Pins: 32, FFs: 735, PinOuts: 22, Gates: 26195, LFSRSize: 243, CtrlInputs: 3},
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("benchgen: unknown benchmark %q", name)
}

// Scale returns a proportionally shrunken copy of the profile (factor in
// (0,1]), for fast test and -short bench runs: gate, FF and output counts
// scale together so the shape of the experiments is preserved.
func (p Profile) Scale(factor float64) Profile {
	if factor >= 1 {
		return p
	}
	s := p
	scaleInt := func(v int) int {
		n := int(float64(v) * factor)
		if n < 4 {
			n = 4
		}
		return n
	}
	s.Name = fmt.Sprintf("%s@%.3g", p.Name, factor)
	s.FFs = scaleInt(p.FFs)
	s.Gates = scaleInt(p.Gates)
	s.PinOuts = scaleInt(p.PinOuts)
	s.Pins = scaleInt(p.Pins)
	if s.LFSRSize > s.Gates/4 {
		s.LFSRSize = s.Gates / 4
	}
	if s.LFSRSize < s.CtrlInputs {
		s.LFSRSize = s.CtrlInputs
	}
	return s
}

// Generate builds the synthetic circuit for a profile. The construction
// is fully deterministic in (profile, seed).
func Generate(p Profile, seed uint64) (*netlist.Circuit, error) {
	if p.inputs() < 2 || p.outputs() < 1 || p.Gates < p.outputs() {
		return nil, fmt.Errorf("benchgen: degenerate profile %+v", p)
	}
	r := rng.NewNamed(seed, p.Name)
	c := netlist.New(p.Name)

	inputs := make([]int, p.inputs())
	for i := range inputs {
		id, err := c.AddInput(fmt.Sprintf("I%d", i))
		if err != nil {
			return nil, err
		}
		inputs[i] = id
	}

	// Gate nodes are created in topological order. Fanins are drawn with
	// a locality bias: mostly recent nodes (builds depth), sometimes
	// inputs or older nodes (builds breadth and reconvergence).
	nodes := append([]int(nil), inputs...)
	pick := func() int {
		n := len(nodes)
		switch r.Intn(10) {
		case 0, 1, 2: // any node
			return nodes[r.Intn(n)]
		case 3, 4: // an input
			return inputs[r.Intn(len(inputs))]
		default: // recent window
			w := 4 * p.outputs()
			if w > n {
				w = n
			}
			return nodes[n-1-r.Intn(w)]
		}
	}
	gateTypes := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor,
	}
	gates := make([]int, 0, p.Gates)
	inverterBudget := p.Gates / 10 // sprinkle inverters; they are free in the area metric
	for g := 0; g < p.Gates; g++ {
		t := gateTypes[r.Intn(len(gateTypes))]
		arity := 2
		if r.Intn(5) == 0 {
			arity = 3
		}
		fan := make([]int, 0, arity)
		seen := map[int]bool{}
		for len(fan) < arity {
			f := pick()
			if !seen[f] {
				seen[f] = true
				fan = append(fan, f)
			}
		}
		id, err := c.AddGate(t, fmt.Sprintf("g%d", g), fan...)
		if err != nil {
			return nil, err
		}
		if inverterBudget > 0 && r.Intn(10) == 0 {
			inv, err := c.AddGate(netlist.Not, fmt.Sprintf("inv%d", g), id)
			if err != nil {
				return nil, err
			}
			id = inv
			inverterBudget--
		}
		nodes = append(nodes, id)
		gates = append(gates, id)
	}

	// Choose primary outputs: all currently dangling gates first (so the
	// DAG has no dead logic), then random internal gates.
	used := make(map[int]bool, len(c.Gates))
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			used[f] = true
		}
	}
	var sinks []int
	for _, id := range gates {
		if !used[id] {
			sinks = append(sinks, id)
		}
	}
	sort.Ints(sinks)
	want := p.outputs()
	if len(sinks) > want {
		// Too many sinks: absorb the surplus into reducer gates.
		for len(sinks) > want {
			take := 3
			if take > len(sinks) {
				take = len(sinks)
			}
			fan := sinks[:take]
			sinks = sinks[take:]
			if len(fan) == 1 {
				sinks = append(sinks, fan[0])
				break
			}
			id, err := c.AddGate(netlist.Xor, fmt.Sprintf("red%d", len(sinks)), fan...)
			if err != nil {
				return nil, err
			}
			sinks = append(sinks, id)
		}
	}
	chosen := make(map[int]bool, want)
	for _, id := range sinks {
		chosen[id] = true
	}
	for len(sinks) < want {
		// Promote distinct random internal gates to outputs as well.
		id := gates[r.Intn(len(gates))]
		if !chosen[id] {
			chosen[id] = true
			sinks = append(sinks, id)
		}
	}
	for _, id := range sinks[:want] {
		if err := c.MarkOutput(id); err != nil {
			return nil, err
		}
	}
	if _, err := ir.Compile(c); err != nil {
		return nil, fmt.Errorf("benchgen: generated circuit invalid: %w", err)
	}
	return c, nil
}
