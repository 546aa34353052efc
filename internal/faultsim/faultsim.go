// Package faultsim is a 64-way parallel-pattern stuck-at fault simulator
// with fault dropping, playing the role HOPE plays in the paper's Table II
// flow: random patterns first knock out the easily detected faults, so
// deterministic ATPG only handles the hard remainder.
//
// Faults live on gate outputs and gate input pins. Simulation is
// parallel-pattern single-fault propagation (PPSFP): the good circuit is
// evaluated once per 64-pattern block, then each live fault is injected
// and its effect propagated event-wise through its fanout cone only.
// Good values and fault propagation both run over the compiled circuit
// IR (internal/ir), sharing one immutable program — and the same gate
// kernel — with the bit-parallel simulator.
package faultsim

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/par"
	"orap/internal/rng"
	"orap/internal/sim"
)

// Fault is a single stuck-at fault.
type Fault struct {
	// Node is the gate whose output (Pin == -1) or input pin (Pin >= 0,
	// an index into the gate's fanin) is stuck.
	Node int
	// Pin selects the faulty connection: -1 for the gate output,
	// otherwise the fanin position.
	Pin int
	// SA1 selects stuck-at-1 (true) or stuck-at-0 (false).
	SA1 bool
}

// String renders the fault in the conventional "node[/pin] s-a-v" form.
func (f Fault) String() string {
	v := 0
	if f.SA1 {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("n%d s-a-%d", f.Node, v)
	}
	return fmt.Sprintf("n%d.in%d s-a-%d", f.Node, f.Pin, v)
}

// CollapseFaults returns a reduced fault list using standard structural
// equivalences: an input pin stuck at the gate's controlling value is
// equivalent to the output stuck at the controlled value, and inverter /
// buffer input faults are equivalent to (possibly inverted) output faults.
// Dominance is not used, so coverage numbers remain exact.
func CollapseFaults(c *netlist.Circuit) []Fault {
	var faults []Fault
	// A node's output faults count when it drives a gate or an output.
	observed := make([]bool, c.NumNodes())
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			observed[f] = true
		}
	}
	for _, o := range c.POs {
		observed[o] = true
	}
	for id, g := range c.Gates {
		if g.Type == netlist.Const0 || g.Type == netlist.Const1 {
			continue
		}
		if observed[id] {
			faults = append(faults, Fault{Node: id, Pin: -1, SA1: false}, Fault{Node: id, Pin: -1, SA1: true})
		}
		switch g.Type {
		case netlist.Buf, netlist.Not:
			// Input faults equivalent to output faults: skip.
		case netlist.And, netlist.Nand:
			// Input s-a-0 forces the AND term: equivalent to output
			// s-a-0 (AND) / s-a-1 (NAND). Keep only input s-a-1.
			for pin := range g.Fanin {
				faults = append(faults, Fault{Node: id, Pin: pin, SA1: true})
			}
		case netlist.Or, netlist.Nor:
			// Input s-a-1 collapses; keep input s-a-0.
			for pin := range g.Fanin {
				faults = append(faults, Fault{Node: id, Pin: pin, SA1: false})
			}
		case netlist.Xor, netlist.Xnor:
			// No controlling value: keep both input fault polarities.
			for pin := range g.Fanin {
				faults = append(faults, Fault{Node: id, Pin: pin, SA1: false}, Fault{Node: id, Pin: pin, SA1: true})
			}
		}
	}
	return faults
}

// Simulator runs parallel-pattern fault simulation over a fixed circuit.
type Simulator struct {
	// Workers bounds the worker pool that fans the live fault list out
	// during RunRandom (0 = all cores, 1 = serial). Detection of each
	// fault is independent of every other, so the result — including the
	// order of Remaining — does not depend on it.
	Workers int

	prog *ir.Program
	par  *sim.Parallel

	// Per-run scratch, epoch-stamped to avoid clearing.
	faulty    []uint64
	stamp     []int
	seenStamp []int
	epoch     int
	heap      posHeap

	isPO []bool
}

// ForProgram builds a fault simulator over an already-compiled program,
// sharing it read-only with any other consumer.
func ForProgram(prog *ir.Program) (*Simulator, error) {
	par, err := sim.ForProgram(prog, 1)
	if err != nil {
		return nil, err
	}
	n := prog.NumNodes()
	isPO := make([]bool, n)
	for _, o := range prog.POs {
		isPO[o] = true
	}
	s := &Simulator{
		prog:      prog,
		par:       par,
		faulty:    make([]uint64, n),
		stamp:     make([]int, n),
		seenStamp: make([]int, n),
		isPO:      isPO,
	}
	s.heap.pos = prog.Pos
	return s, nil
}

// Program returns the simulator's compiled program.
func (s *Simulator) Program() *ir.Program { return s.prog }

// clone returns a propagation worker sharing the (read-only) compiled
// program and the good-circuit evaluator, with private fault-effect
// scratch. Clones only read s.par between the good-value Run and the
// merge barrier, so a batch of clones can simulate disjoint fault chunks
// of the same block concurrently.
func (s *Simulator) clone() *Simulator {
	n := s.prog.NumNodes()
	cl := &Simulator{
		prog:      s.prog,
		par:       s.par,
		faulty:    make([]uint64, n),
		stamp:     make([]int, n),
		seenStamp: make([]int, n),
		isPO:      s.isPO,
	}
	cl.heap.pos = s.prog.Pos
	return cl
}

// goodValue returns the good-circuit word of node id for the current block.
func (s *Simulator) goodValue(id int) uint64 { return s.par.Value(id)[0] }

// faultyValue returns the faulty word of node id (good value when the
// fault effect has not reached it this epoch).
func (s *Simulator) faultyValue(id int) uint64 {
	if s.stamp[id] == s.epoch {
		return s.faulty[id]
	}
	return s.goodValue(id)
}

func (s *Simulator) setFaulty(id int, v uint64) {
	s.faulty[id] = v
	s.stamp[id] = s.epoch
}

// evalFaulty recomputes node id's value from the faulty values of its
// fanins via the shared IR gate kernel, honouring an input-pin fault on
// (fnode, fpin).
func (s *Simulator) evalFaulty(id int, f Fault) uint64 {
	op := s.prog.Ops[id]
	if op == ir.OpInput {
		return s.goodValue(id)
	}
	fan := s.prog.FaninSpan(id)
	return ir.EvalWord(op, len(fan), func(pin int) uint64 {
		if id == f.Node && pin == f.Pin {
			if f.SA1 {
				return ^uint64(0)
			}
			return 0
		}
		return s.faultyValue(int(fan[pin]))
	})
}

// simulateFault propagates one fault over the current block and reports
// whether any primary output differs on any pattern.
func (s *Simulator) simulateFault(f Fault) bool {
	s.epoch++
	var root int
	var rootVal uint64
	if f.Pin < 0 {
		root = f.Node
		if f.SA1 {
			rootVal = ^uint64(0)
		} else {
			rootVal = 0
		}
	} else {
		root = f.Node
		rootVal = s.evalFaulty(root, f)
	}
	if rootVal == s.goodValue(root) {
		return false // fault not excited by any pattern in the block
	}
	s.setFaulty(root, rootVal)
	if s.isPO[root] {
		return true
	}
	// Event-driven propagation in topological order using a sorted
	// frontier (binary heap keyed by topo position). The seen stamps and
	// the heap storage are reused across faults to stay allocation-free.
	h := &s.heap
	h.heap = h.heap[:0]
	push := func(id int32) {
		if s.seenStamp[id] != s.epoch {
			s.seenStamp[id] = s.epoch
			h.push(id)
		}
	}
	for _, fo := range s.prog.FanoutSpan(root) {
		push(fo)
	}
	for h.len() > 0 {
		id := int(h.pop())
		nv := s.evalFaulty(id, f)
		if nv == s.goodValue(id) {
			continue
		}
		s.setFaulty(id, nv)
		if s.isPO[id] {
			return true
		}
		for _, fo := range s.prog.FanoutSpan(id) {
			push(fo)
		}
	}
	return false
}

// Result summarizes a fault-simulation campaign.
type Result struct {
	// Total is the number of simulated faults.
	Total int
	// Detected is the number of faults some pattern detected.
	Detected int
	// Remaining lists the undetected faults (for handoff to ATPG).
	Remaining []Fault
}

// Coverage returns the detected fraction in percent.
func (r Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Detected) / float64(r.Total)
}

// parallelFaultFloor is the live-list size below which the per-block
// fan-out is not worth the goroutine round trip and RunRandom drops back
// to the serial loop.
const parallelFaultFloor = 256

// RunRandom simulates `blocks` blocks of 64 random patterns with fault
// dropping and returns the campaign result. Key inputs are treated as
// freely controllable (they sit in the scan chains under OraP), so they
// receive random patterns exactly like primary inputs.
//
// Within each block the live fault list is partitioned into batches
// simulated by per-worker clones over the shared good-circuit values
// (s.Workers bounds the pool); detection flags are merged in fault order
// at the barrier, so the result is identical at any worker count.
func (s *Simulator) RunRandom(faults []Fault, blocks int, r *rng.Stream) Result {
	live := append([]Fault(nil), faults...)
	res := Result{Total: len(faults)}
	workers := par.Workers(s.Workers)
	var clones []*Simulator // lazily grown; slot 0 is s itself
	var detected []bool
	for b := 0; b < blocks && len(live) > 0; b++ {
		for _, id := range s.prog.Inputs {
			s.par.Value(int(id))[0] = r.Uint64()
		}
		s.par.Run()
		if workers <= 1 || len(live) < parallelFaultFloor {
			kept := live[:0]
			for _, f := range live {
				if s.simulateFault(f) {
					res.Detected++
				} else {
					kept = append(kept, f)
				}
			}
			live = kept
			continue
		}
		chunks := par.Partition(len(live), workers*4)
		detected = append(detected[:0], make([]bool, len(live))...)
		for len(clones) < workers {
			clones = append(clones, nil)
		}
		// Each worker tests a contiguous fault chunk; no two items touch
		// the same detected slot, and the good values are read-only here.
		par.ForEachWorker(workers, len(chunks), func(w, ci int) error {
			sm := s
			if w > 0 {
				if clones[w] == nil {
					clones[w] = s.clone()
				}
				sm = clones[w]
			}
			for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
				if sm.simulateFault(live[i]) {
					detected[i] = true
				}
			}
			return nil
		})
		kept := live[:0]
		for i, f := range live {
			if detected[i] {
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

// DetectsEach fault-simulates one test pattern (covering primary inputs
// then key inputs) and reports, fault by fault, whether it detects each
// of the given faults. The good circuit is evaluated once for the whole
// list.
func (s *Simulator) DetectsEach(faults []Fault, pattern []bool) ([]bool, error) {
	ins := s.prog.Inputs
	if len(pattern) != len(ins) {
		return nil, fmt.Errorf("faultsim: pattern width %d != inputs %d", len(pattern), len(ins))
	}
	for i, id := range ins {
		if pattern[i] {
			s.par.Value(int(id))[0] = ^uint64(0)
		} else {
			s.par.Value(int(id))[0] = 0
		}
	}
	s.par.Run()
	hit := make([]bool, len(faults))
	for i, f := range faults {
		hit[i] = s.simulateFault(f)
	}
	return hit, nil
}

// posHeap is a small binary min-heap of node IDs keyed by topological
// position, used to process fault events in dependency order.
type posHeap struct {
	pos  []int32
	heap []int32
}

func (h *posHeap) len() int { return len(h.heap) }

func (h *posHeap) push(id int32) {
	h.heap = append(h.heap, id)
	i := len(h.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.pos[h.heap[p]] <= h.pos[h.heap[i]] {
			break
		}
		h.heap[p], h.heap[i] = h.heap[i], h.heap[p]
		i = p
	}
}

func (h *posHeap) pop() int32 {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.pos[h.heap[l]] < h.pos[h.heap[small]] {
			small = l
		}
		if r < last && h.pos[h.heap[r]] < h.pos[h.heap[small]] {
			small = r
		}
		if small == i {
			break
		}
		h.heap[i], h.heap[small] = h.heap[small], h.heap[i]
		i = small
	}
	return top
}
