// Package ir compiles gate-level circuits into an immutable, levelized
// program that every evaluation backend shares, and is the one place
// that decides whether a circuit is well-formed.
//
// A netlist.Circuit is only the mutable form a circuit is built in:
// gates in a slice of structs with per-gate fanin slices, plus names,
// source lines and the I/O lists. ir.Compile flattens a finished circuit
// once into a Program — CSR-style fanin and fanout arrays, a compact
// opcode table, a precomputed level-monotone topological order with
// node levels, and PI/key/PO index maps — and the simulator, fault
// simulator, CNF encoder, AIG conversion, ATPG, the lockers and the
// checker all ask that flat view their graph questions. A Program is never modified after Compile
// returns, so any number of goroutines can evaluate it concurrently
// without warm-up or synchronization.
//
// Compile refuses an ill-formed circuit with a *DefectError listing
// every defect: arity and reference violations, undriven nets and a
// combinational cycle named by its path. internal/check renders those
// defects as its structural diagnostics.
//
// Invariants established by Compile:
//
//   - Order is a topological order: every node appears after all of its
//     fanins. It is Kahn's algorithm with a FIFO queue seeded with the
//     zero-fanin nodes in ID order, so CNF variable numbering, AIG
//     construction and bench.Format's gate order are reproducible.
//   - Order is level-monotone: node levels are non-decreasing along it,
//     so a node's position ranks it by depth (bdd.InputOrder relies on
//     this).
//   - Fanins preserves pin order; Fanouts mirrors every fanin edge in
//     sink-ID order, with duplicate edges kept.
package ir

import (
	"fmt"
	"strings"

	"orap/internal/netlist"
)

// Op is a compact gate opcode. The values mirror netlist.GateType
// exactly, so conversion is a cast in either direction.
type Op uint8

// Opcodes, in netlist.GateType order.
const (
	OpInput Op = iota
	OpConst0
	OpConst1
	OpBuf
	OpNot
	OpAnd
	OpNand
	OpOr
	OpNor
	OpXor
	OpXnor
)

// String returns the conventional gate name.
func (o Op) String() string { return netlist.GateType(o).String() }

// GateType returns the netlist gate type the opcode mirrors.
func (o Op) GateType() netlist.GateType { return netlist.GateType(o) }

// Program is an immutable compiled circuit. All slice fields are
// read-only after Compile returns; they may be shared freely across
// goroutines and evaluators.
type Program struct {
	// Name echoes the source circuit's name.
	Name string

	// Ops holds the opcode of every node; the index is the node ID
	// (identical to the source circuit's node IDs).
	Ops []Op

	// FaninStart/Fanins is the CSR fanin adjacency: the fanins of node
	// id are Fanins[FaninStart[id]:FaninStart[id+1]], in pin order.
	FaninStart []int32
	Fanins     []int32

	// FanoutStart/Fanouts is the CSR fanout adjacency: the nodes driven
	// by id are Fanouts[FanoutStart[id]:FanoutStart[id+1]]. Duplicate
	// fanin edges yield duplicate fanout entries.
	FanoutStart []int32
	Fanouts     []int32

	// Order lists node IDs in topological, level-monotone order.
	Order []int32
	// Pos is the inverse of Order: Pos[id] is id's position in Order.
	Pos []int32
	// Level is the logic level of every node (inputs and constants 0,
	// gates 1 + max fanin level).
	Level []int32

	// PIs, Keys and POs hold the primary-input, key-input and
	// primary-output node IDs in declaration order. Inputs is PIs
	// followed by Keys (the scan-chain controllability order).
	PIs    []int32
	Keys   []int32
	POs    []int32
	Inputs []int32
}

// DefectKind classifies a structural defect.
type DefectKind uint8

// Defect kinds, one per structural rule of internal/check.
const (
	// DefectArity is a gate arity violation (Buf/Not fanin != 1,
	// multi-input gates with < 2 fanins, fanin on an Input or constant),
	// an unknown gate type, an out-of-range fanin or output reference, or
	// an input-list entry that is not an Input node.
	DefectArity DefectKind = iota
	// DefectUndriven is a net with no driver: an Input-type node
	// registered as neither a primary nor a key input.
	DefectUndriven
	// DefectCycle is a combinational cycle.
	DefectCycle
)

// Defect is one reason a circuit is not well-formed.
type Defect struct {
	Kind DefectKind
	// Node is the offending node: the gate, the undriven Input node, the
	// listed input ID (itself possibly out of range), or the first node
	// of the cycle. It is -1 for an output-list defect.
	Node int
	// Cycle lists the nodes of a DefectCycle in driver order: each node
	// drives the next, and the last drives the first.
	Cycle []int
	// Err describes the defect; its text is the message of check's
	// diagnostic. It is an error, not a string, because Compile also
	// runs on circuits taken out of key-holding configurations
	// (scan.New), and orapvet's nosecret rule lets only errors carry
	// text derived from those.
	Err error
}

// DefectError is Compile's error for an ill-formed circuit. Defects
// lists every arity and undriven defect in node order, input-list
// entries first and output-list entries last. The cycle search runs
// only when there is no arity defect, since it needs every reference
// in range; its one cycle, if any, comes last.
type DefectError struct {
	Circuit string
	Defects []Defect
}

// Error names the first defect and counts the rest.
func (e *DefectError) Error() string {
	msg := fmt.Sprintf("ir: circuit %q: %v", e.Circuit, e.Defects[0].Err)
	if more := len(e.Defects) - 1; more > 0 {
		msg += fmt.Sprintf(" (and %d more defects)", more)
	}
	return msg
}

// Compile flattens a finished circuit into an immutable Program. The
// circuit is only read; later mutations of it are not reflected in the
// returned program. An ill-formed circuit is refused with a
// *DefectError, so no downstream backend ever sees one.
func Compile(c *netlist.Circuit) (*Program, error) {
	defects := validate(c)
	for _, d := range defects {
		if d.Kind == DefectArity {
			return nil, &DefectError{Circuit: c.Name, Defects: defects}
		}
	}
	n := len(c.Gates)
	p := &Program{
		Name:        c.Name,
		Ops:         make([]Op, n),
		FaninStart:  make([]int32, n+1),
		FanoutStart: make([]int32, n+1),
		Order:       make([]int32, 0, n),
		Pos:         make([]int32, n),
		Level:       make([]int32, n),
	}

	// Opcodes and CSR fanins (pin order preserved).
	edges := 0
	for _, g := range c.Gates {
		edges += len(g.Fanin)
	}
	p.Fanins = make([]int32, 0, edges)
	for id, g := range c.Gates {
		p.Ops[id] = Op(g.Type)
		p.FaninStart[id] = int32(len(p.Fanins))
		for _, f := range g.Fanin {
			p.Fanins = append(p.Fanins, int32(f))
		}
	}
	p.FaninStart[n] = int32(len(p.Fanins))

	// CSR fanouts: count, prefix-sum, fill (restoring the prefix sums).
	counts := make([]int32, n)
	for _, f := range p.Fanins {
		counts[f]++
	}
	var sum int32
	for id, cnt := range counts {
		p.FanoutStart[id] = sum
		sum += cnt
	}
	p.FanoutStart[n] = sum
	p.Fanouts = make([]int32, sum)
	next := make([]int32, n)
	copy(next, p.FanoutStart[:n])
	for id := 0; id < n; id++ {
		for _, f := range p.FaninSpan(id) {
			p.Fanouts[next[f]] = int32(id)
			next[f]++
		}
	}

	// Kahn's algorithm with a FIFO queue seeded in ID order, which is
	// also level-monotone.
	indeg := make([]int32, n)
	for id := 0; id < n; id++ {
		indeg[id] = p.FaninStart[id+1] - p.FaninStart[id]
	}
	queue := make([]int32, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, int32(id))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		p.Order = append(p.Order, id)
		for _, fo := range p.FanoutSpan(int(id)) {
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	if len(p.Order) != n {
		defects = append(defects, cycleDefect(c, p.findCycle()))
	}
	if len(defects) > 0 {
		return nil, &DefectError{Circuit: c.Name, Defects: defects}
	}

	// Positions and levels over Order, which Kahn's FIFO keeps
	// level-monotone.
	for i, id := range p.Order {
		p.Pos[id] = int32(i)
		lv := int32(0)
		for _, f := range p.FaninSpan(int(id)) {
			if l := p.Level[f] + 1; l > lv {
				lv = l
			}
		}
		p.Level[id] = lv
		if i > 0 && lv < p.Level[p.Order[i-1]] {
			return nil, fmt.Errorf("ir: internal error: order of %q not level-monotone at position %d", c.Name, i)
		}
	}

	p.PIs = toInt32(c.PIs)
	p.Keys = toInt32(c.Keys)
	p.POs = toInt32(c.POs)
	p.Inputs = make([]int32, 0, len(p.PIs)+len(p.Keys))
	p.Inputs = append(p.Inputs, p.PIs...)
	p.Inputs = append(p.Inputs, p.Keys...)
	return p, nil
}

// validate returns the arity and undriven defects of c, in the order
// described on DefectError.
func validate(c *netlist.Circuit) []Defect {
	var defects []Defect
	add := func(kind DefectKind, node int, format string, args ...interface{}) {
		defects = append(defects, Defect{Kind: kind, Node: node, Err: fmt.Errorf(format, args...)})
	}
	n := len(c.Gates)
	registered := make([]bool, n)
	for _, in := range c.AllInputs() {
		if in < 0 || in >= n || c.Gates[in].Type != netlist.Input {
			add(DefectArity, in, "input list references node %d, which is not an Input node", in)
			continue
		}
		registered[in] = true
	}
	for id := range c.Gates {
		g := &c.Gates[id]
		switch g.Type {
		case netlist.Input:
			if len(g.Fanin) != 0 {
				add(DefectArity, id, "input %q must have no fanin, has %d", c.NameOf(id), len(g.Fanin))
			}
			if !registered[id] {
				add(DefectUndriven, id, "net %q has no driver: an Input-type node registered as neither primary nor key input", c.NameOf(id))
			}
		case netlist.Const0, netlist.Const1:
			if len(g.Fanin) != 0 {
				add(DefectArity, id, "constant %q must have no fanin, has %d", c.NameOf(id), len(g.Fanin))
			}
		case netlist.Buf, netlist.Not:
			if len(g.Fanin) != 1 {
				add(DefectArity, id, "%v gate %q must have exactly 1 fanin, has %d", g.Type, c.NameOf(id), len(g.Fanin))
			}
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
			if len(g.Fanin) < 2 {
				add(DefectArity, id, "%v gate %q must have at least 2 fanins, has %d", g.Type, c.NameOf(id), len(g.Fanin))
			}
		default:
			add(DefectArity, id, "node %q has unknown gate type %d", c.NameOf(id), uint8(g.Type))
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= n {
				add(DefectArity, id, "gate %q references out-of-range fanin %d", c.NameOf(id), f)
			}
		}
	}
	for _, o := range c.POs {
		if o < 0 || o >= n {
			add(DefectArity, -1, "output list references out-of-range node %d", o)
		}
	}
	return defects
}

// findCycle returns the nodes of one combinational cycle in driver
// order, or nil when the fanin graph is acyclic. It is an iterative DFS
// over fanin edges in node and pin order; an edge into a node still on
// the DFS path closes the cycle.
func (p *Program) findCycle() []int {
	const (
		unseen = 0
		active = 1
		done   = 2
	)
	n := p.NumNodes()
	state := make([]uint8, n)
	// pathPos tracks each active node's index on the DFS path so the
	// cycle can be sliced out of it.
	path := make([]int, 0, 16)
	pathPos := make([]int, n)
	type frame struct{ id, next int }
	for root := 0; root < n; root++ {
		if state[root] != unseen {
			continue
		}
		stack := []frame{{root, 0}}
		state[root] = active
		pathPos[root] = len(path)
		path = append(path, root)
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			fan := p.FaninSpan(fr.id)
			if fr.next < len(fan) {
				f := int(fan[fr.next])
				fr.next++
				switch state[f] {
				case active:
					// path[pathPos[f]:] runs along fanin edges; reverse
					// it so it reads driver to sink.
					cyc := append([]int(nil), path[pathPos[f]:]...)
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				case unseen:
					state[f] = active
					pathPos[f] = len(path)
					path = append(path, f)
					stack = append(stack, frame{f, 0})
				}
				continue
			}
			state[fr.id] = done
			path = path[:len(path)-1]
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// cycleDefect describes a cycle found by findCycle as "a -> b -> a".
func cycleDefect(c *netlist.Circuit, cyc []int) Defect {
	names := make([]string, len(cyc))
	for i, id := range cyc {
		names[i] = c.NameOf(id)
	}
	return Defect{Kind: DefectCycle, Node: cyc[0], Cycle: cyc,
		Err: fmt.Errorf("combinational cycle: %s -> %s", strings.Join(names, " -> "), names[0])}
}

// MustCompile is Compile that panics on any defect; intended for
// circuits built by trusted generators and tests.
func MustCompile(c *netlist.Circuit) *Program {
	p, err := Compile(c)
	if err != nil {
		panic(err)
	}
	return p
}

func toInt32(ids []int) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// NumNodes returns the total node count, including inputs and constants.
func (p *Program) NumNodes() int { return len(p.Ops) }

// NumInputs returns the primary (non-key) input count.
func (p *Program) NumInputs() int { return len(p.PIs) }

// NumKeys returns the key input count.
func (p *Program) NumKeys() int { return len(p.Keys) }

// NumOutputs returns the primary output count.
func (p *Program) NumOutputs() int { return len(p.POs) }

// Depth returns the maximum logic level across primary outputs.
func (p *Program) Depth() int {
	d := int32(0)
	for _, o := range p.POs {
		if p.Level[o] > d {
			d = p.Level[o]
		}
	}
	return int(d)
}

// Summary returns the program's one-line shape, ending in a newline:
// node count, gate count without inverters and buffers (the paper's
// area metric), inverters, buffers, inputs, key inputs, outputs and
// output depth in levels.
func (p *Program) Summary() string {
	var gates, inv, buf int
	for _, op := range p.Ops {
		switch {
		case op == OpNot:
			inv++
		case op == OpBuf:
			buf++
		case op.GateType().CountsAsGate():
			gates++
		}
	}
	return fmt.Sprintf("circuit %q: nodes=%d gates=%d inv=%d buf=%d pi=%d key=%d po=%d depth=%d\n",
		p.Name, p.NumNodes(), gates, inv, buf, p.NumInputs(), p.NumKeys(), p.NumOutputs(), p.Depth())
}

// FaninSpan returns the fanin IDs of node id, in pin order. The returned
// slice aliases the program and must not be modified.
func (p *Program) FaninSpan(id int) []int32 {
	return p.Fanins[p.FaninStart[id]:p.FaninStart[id+1]]
}

// FanoutSpan returns the IDs of the nodes driven by id. The returned
// slice aliases the program and must not be modified.
func (p *Program) FanoutSpan(id int) []int32 {
	return p.Fanouts[p.FanoutStart[id]:p.FanoutStart[id+1]]
}

// TransitiveFanout marks every node in the transitive fanout cone of the
// given roots (roots included).
func (p *Program) TransitiveFanout(roots ...int) []bool {
	out := make([]bool, p.NumNodes())
	stack := make([]int32, 0, len(roots))
	for _, r := range roots {
		stack = append(stack, int32(r))
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || int(id) >= len(out) || out[id] {
			continue
		}
		out[id] = true
		stack = append(stack, p.FanoutSpan(int(id))...)
	}
	return out
}

// TransitiveFanin marks every node in the transitive fanin cone of the
// given roots (roots included).
func (p *Program) TransitiveFanin(roots ...int) []bool {
	in := make([]bool, p.NumNodes())
	stack := make([]int32, 0, len(roots))
	for _, r := range roots {
		stack = append(stack, int32(r))
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || int(id) >= len(in) || in[id] {
			continue
		}
		in[id] = true
		stack = append(stack, p.FaninSpan(int(id))...)
	}
	return in
}
