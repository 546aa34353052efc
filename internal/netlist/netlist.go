// Package netlist constructs gate-level combinational circuits.
//
// A Circuit is a table of multi-input logic gates plus node names, .bench
// source lines and the input, key and output lists. Nodes are identified
// by dense integer IDs (indices into the gate table). Primary inputs and
// key inputs are both Input-type nodes; the circuit tracks which input
// IDs carry key bits so locking schemes and attacks can treat them
// specially. AddGate only accepts fanins that already exist, so a
// circuit built through it alone is acyclic with topological IDs.
//
// The package answers no graph questions. ir.Compile decides whether a
// finished circuit is well-formed and flattens it into an ir.Program,
// which owns the topological order, levels, fanout adjacency and cones.
// GateCount is the paper's area metric (Table I): gates excluding
// inverters and buffers.
package netlist

import (
	"fmt"
)

// GateType enumerates the supported logic functions.
type GateType uint8

// Supported gate types. Input nodes have no fanin; Const0/Const1 are
// constant drivers; Buf and Not are single-input; the remaining types
// accept two or more fanins.
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	numGateTypes
)

var gateNames = [...]string{
	Input:  "INPUT",
	Const0: "CONST0",
	Const1: "CONST1",
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
}

// String returns the conventional upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Inverting reports whether the gate complements the underlying
// monotone/parity function (NOT, NAND, NOR, XNOR).
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// CountsAsGate reports whether a node of this type counts toward the
// paper's area metric: every logic gate except inverters and buffers.
func (t GateType) CountsAsGate() bool {
	switch t {
	case Input, Const0, Const1, Not, Buf:
		return false
	}
	return true
}

// Gate is a single node of the circuit DAG.
type Gate struct {
	Type  GateType
	Fanin []int // IDs of driver nodes, empty for Input/Const
}

// Circuit is a combinational gate-level netlist.
//
// The zero value is an empty circuit ready for use, but most callers should
// use New so the circuit has a name.
type Circuit struct {
	Name string

	// Gates holds every node; the slice index is the node ID.
	Gates []Gate
	// NodeNames holds an optional textual name per node ("" if unnamed).
	NodeNames []string

	// PIs lists primary (functional) input node IDs in declaration order.
	PIs []int
	// Keys lists key input node IDs in declaration order.
	Keys []int
	// POs lists primary output node IDs in declaration order.
	POs []int

	// SrcLines optionally records, per node, the 1-based source line the
	// node was defined on (0 = unknown). Populated by parsers such as
	// bench.Parse so structural diagnostics (internal/check) can point
	// back into the source file. The slice may be shorter than Gates;
	// use SrcLine/SetSrcLine rather than indexing directly.
	SrcLines []int

	byName map[string]int
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// NumNodes returns the total number of nodes, including inputs and constants.
func (c *Circuit) NumNodes() int { return len(c.Gates) }

// NumInputs returns the number of primary (non-key) inputs.
func (c *Circuit) NumInputs() int { return len(c.PIs) }

// NumKeys returns the number of key inputs.
func (c *Circuit) NumKeys() int { return len(c.Keys) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.POs) }

// nameNode registers a name for node id, if non-empty.
func (c *Circuit) nameNode(id int, name string) error {
	if name == "" {
		return nil
	}
	if c.byName == nil {
		c.byName = make(map[string]int)
	}
	if old, ok := c.byName[name]; ok && old != id {
		return fmt.Errorf("netlist: duplicate node name %q (nodes %d and %d)", name, old, id)
	}
	c.byName[name] = id
	for len(c.NodeNames) < len(c.Gates) {
		c.NodeNames = append(c.NodeNames, "")
	}
	c.NodeNames[id] = name
	return nil
}

// addNode appends a raw node and returns its ID.
func (c *Circuit) addNode(g Gate, name string) (int, error) {
	id := len(c.Gates)
	c.Gates = append(c.Gates, g)
	c.NodeNames = append(c.NodeNames, "")
	if err := c.nameNode(id, name); err != nil {
		c.Gates = c.Gates[:id]
		c.NodeNames = c.NodeNames[:id]
		return 0, err
	}
	return id, nil
}

// AddInput adds a primary input node with the given name and returns its ID.
func (c *Circuit) AddInput(name string) (int, error) {
	id, err := c.addNode(Gate{Type: Input}, name)
	if err != nil {
		return 0, err
	}
	c.PIs = append(c.PIs, id)
	return id, nil
}

// AddKeyInput adds a key input node with the given name and returns its ID.
func (c *Circuit) AddKeyInput(name string) (int, error) {
	id, err := c.addNode(Gate{Type: Input}, name)
	if err != nil {
		return 0, err
	}
	c.Keys = append(c.Keys, id)
	return id, nil
}

// AddConst adds a constant node driving the given value and returns its ID.
func (c *Circuit) AddConst(v bool, name string) (int, error) {
	t := Const0
	if v {
		t = Const1
	}
	return c.addNode(Gate{Type: t}, name)
}

// AddGate adds a logic gate with the given fanins and returns its ID.
// Fanin IDs must already exist. Buf/Not require exactly one fanin; the
// multi-input types require at least two.
func (c *Circuit) AddGate(t GateType, name string, fanin ...int) (int, error) {
	switch t {
	case Input, Const0, Const1:
		return 0, fmt.Errorf("netlist: AddGate cannot add %v nodes", t)
	case Buf, Not:
		if len(fanin) != 1 {
			return 0, fmt.Errorf("netlist: %v gate %q needs exactly 1 fanin, got %d", t, name, len(fanin))
		}
	default:
		if t >= numGateTypes {
			return 0, fmt.Errorf("netlist: unknown gate type %d", t)
		}
		if len(fanin) < 2 {
			return 0, fmt.Errorf("netlist: %v gate %q needs at least 2 fanins, got %d", t, name, len(fanin))
		}
	}
	for _, f := range fanin {
		if f < 0 || f >= len(c.Gates) {
			return 0, fmt.Errorf("netlist: gate %q references unknown fanin node %d", name, f)
		}
	}
	fi := make([]int, len(fanin))
	copy(fi, fanin)
	return c.addNode(Gate{Type: t, Fanin: fi}, name)
}

// MustAddGate is AddGate that panics on error; intended for tests and
// generators building circuits from trusted descriptions.
func (c *Circuit) MustAddGate(t GateType, name string, fanin ...int) int {
	id, err := c.AddGate(t, name, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// MarkOutput declares node id as a primary output.
func (c *Circuit) MarkOutput(id int) error {
	if id < 0 || id >= len(c.Gates) {
		return fmt.Errorf("netlist: output references unknown node %d", id)
	}
	c.POs = append(c.POs, id)
	return nil
}

// NodeByName returns the ID of the named node.
func (c *Circuit) NodeByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// NameOf returns the textual name of node id, or a synthetic "n<id>" when
// the node is unnamed.
func (c *Circuit) NameOf(id int) string {
	if id >= 0 && id < len(c.NodeNames) && c.NodeNames[id] != "" {
		return c.NodeNames[id]
	}
	return fmt.Sprintf("n%d", id)
}

// SetSrcLine records the 1-based source line node id was defined on.
// Lines are advisory metadata: they survive Clone but are not otherwise
// maintained across structural edits.
func (c *Circuit) SetSrcLine(id, line int) {
	if id < 0 || id >= len(c.Gates) || line <= 0 {
		return
	}
	for len(c.SrcLines) < len(c.Gates) {
		c.SrcLines = append(c.SrcLines, 0)
	}
	c.SrcLines[id] = line
}

// SrcLine returns the recorded source line of node id, or 0 when unknown.
func (c *Circuit) SrcLine(id int) int {
	if id >= 0 && id < len(c.SrcLines) {
		return c.SrcLines[id]
	}
	return 0
}

// Rename assigns a (new) name to node id. A name already taken by
// another node is refused, and the node keeps its old name.
func (c *Circuit) Rename(id int, name string) error {
	if id < 0 || id >= len(c.Gates) {
		return fmt.Errorf("netlist: rename of unknown node %d", id)
	}
	if other, ok := c.byName[name]; ok && other != id {
		return fmt.Errorf("netlist: duplicate node name %q (nodes %d and %d)", name, other, id)
	}
	if old := c.NodeNames[id]; old != "" {
		delete(c.byName, old)
		c.NodeNames[id] = ""
	}
	return c.nameNode(id, name)
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	nc := &Circuit{
		Name:      c.Name,
		Gates:     make([]Gate, len(c.Gates)),
		NodeNames: append([]string(nil), c.NodeNames...),
		PIs:       append([]int(nil), c.PIs...),
		Keys:      append([]int(nil), c.Keys...),
		POs:       append([]int(nil), c.POs...),
		SrcLines:  append([]int(nil), c.SrcLines...),
		byName:    make(map[string]int, len(c.byName)),
	}
	for i, g := range c.Gates {
		nc.Gates[i] = Gate{Type: g.Type, Fanin: append([]int(nil), g.Fanin...)}
	}
	for k, v := range c.byName {
		nc.byName[k] = v
	}
	return nc
}

// AllInputs returns the IDs of primary inputs followed by key inputs.
func (c *Circuit) AllInputs() []int {
	all := make([]int, 0, len(c.PIs)+len(c.Keys))
	all = append(all, c.PIs...)
	all = append(all, c.Keys...)
	return all
}

// IsKeyInput reports whether node id is a key input.
func (c *Circuit) IsKeyInput(id int) bool {
	for _, k := range c.Keys {
		if k == id {
			return true
		}
	}
	return false
}

// GateCount returns the number of logic gates excluding inverters and
// buffers, the paper's area metric.
func (c *Circuit) GateCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Type.CountsAsGate() {
			n++
		}
	}
	return n
}
