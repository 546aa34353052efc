package bdd

import (
	"fmt"
	"sort"

	"orap/internal/ir"
)

// Symbolic compilation of ir.Program cones: every circuit input that
// matters becomes a BDD variable (or a bound constant), and each
// requested output's Boolean function is built gate by gate in
// topological order. The compiler memoises per-node results, so
// overlapping cones (shared logic between primary outputs) are
// compiled once.

// InputOrder returns the program's inputs (PIs then keys, the
// declaration order of ir.Program.Inputs) sorted into the BDD variable
// order: ascending by the earliest topological position of any gate
// the input drives. The program's Order is level-monotone, so this
// seeds the variable order by logic depth — inputs feeding
// shallow logic test first, which keeps the intermediate diagrams of a
// levelized compile narrow. Inputs driving nothing sort last; ties
// break on declaration order, so the result is deterministic.
func InputOrder(p *ir.Program) []int32 {
	type ranked struct {
		id   int32
		pos  int32
		decl int
	}
	inputs := make([]ranked, len(p.Inputs))
	for i, id := range p.Inputs {
		first := int32(p.NumNodes()) // past every real position
		for _, fo := range p.FanoutSpan(int(id)) {
			if p.Pos[fo] < first {
				first = p.Pos[fo]
			}
		}
		inputs[i] = ranked{id: id, pos: first, decl: i}
	}
	sort.Slice(inputs, func(a, b int) bool {
		if inputs[a].pos != inputs[b].pos {
			return inputs[a].pos < inputs[b].pos
		}
		return inputs[a].decl < inputs[b].decl
	})
	out := make([]int32, len(inputs))
	for i, r := range inputs {
		out[i] = r.id
	}
	return out
}

// Compiler builds BDD functions for a program's nodes inside one
// Manager. Bind every input the requested cones reach (BindVar or
// BindConst) before calling Compile.
type Compiler struct {
	m *Manager
	p *ir.Program
	// vals memoises the compiled function per program node, valid
	// where done is set. Inputs are seeded by the Bind calls.
	vals []Node
	done []bool
	// seen stamps the nodes the current Compile call has gathered with
	// that call's epoch, so the cone walk needs no per-call set.
	seen  []uint32
	epoch uint32
}

// NewCompiler returns a compiler for p targeting m.
func NewCompiler(m *Manager, p *ir.Program) *Compiler {
	c := &Compiler{
		m:    m,
		p:    p,
		vals: make([]Node, p.NumNodes()),
		done: make([]bool, p.NumNodes()),
		seen: make([]uint32, p.NumNodes()),
	}
	return c
}

// BindVar maps input node id to BDD variable level v.
func (c *Compiler) BindVar(id int32, v int) error {
	n, err := c.m.variable(v)
	if err != nil {
		return err
	}
	c.vals[id] = n
	c.done[id] = true
	return nil
}

// BindConst fixes input node id to a constant (how KeyEquivalence
// locks the key inputs to the provided key).
func (c *Compiler) BindConst(id int32, v bool) {
	c.vals[id] = c.m.constant(v)
	c.done[id] = true
}

// Compile returns the Boolean function of program node out as a BDD
// over the bound variables. An ErrBudget from the Manager is passed
// through; an unbound input in the cone is a caller bug and errors.
func (c *Compiler) Compile(out int32) (n Node, err error) {
	if c.done[out] {
		return c.vals[out], nil
	}
	// Gather the not-yet-compiled cone, then evaluate it in topological
	// order (sorting by Pos; the program's Order is level-monotone so
	// fanins always come first).
	var cone []int32
	stack := []int32{out}
	c.epoch++
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.seen[id] == c.epoch || c.done[id] {
			continue
		}
		c.seen[id] = c.epoch
		cone = append(cone, id)
		stack = append(stack, c.p.FaninSpan(int(id))...)
	}
	sort.Slice(cone, func(a, b int) bool { return c.p.Pos[cone[a]] < c.p.Pos[cone[b]] })

	defer c.m.guard(&n, &err)
	for _, id := range cone {
		v, gerr := c.gate(id)
		if gerr != nil {
			return False, gerr
		}
		c.vals[id] = v
		c.done[id] = true
	}
	return c.vals[out], nil
}

// gate evaluates one program node whose fanins are all compiled. Runs
// inside Compile's budget guard, so it uses the panicking kernels
// directly: iteRec for AND and OR, xorRec for XOR and every negation.
func (c *Compiler) gate(id int32) (Node, error) {
	m, p := c.m, c.p
	op := p.Ops[id]
	switch op {
	case ir.OpInput:
		return False, fmt.Errorf("bdd: input %d reached by the cone but not bound", id)
	case ir.OpConst0:
		return False, nil
	case ir.OpConst1:
		return True, nil
	}
	fi := p.FaninSpan(int(id))
	switch op {
	case ir.OpBuf:
		return c.vals[fi[0]], nil
	case ir.OpNot:
		return m.xorRec(True, c.vals[fi[0]]), nil
	}
	acc := c.vals[fi[0]]
	for _, f := range fi[1:] {
		g := c.vals[f]
		switch op {
		case ir.OpAnd, ir.OpNand:
			acc = m.iteRec(acc, g, False)
		case ir.OpOr, ir.OpNor:
			acc = m.iteRec(acc, True, g)
		case ir.OpXor, ir.OpXnor:
			acc = m.xorRec(acc, g)
		default:
			return False, fmt.Errorf("bdd: node %d has unknown opcode %d", id, uint8(op))
		}
	}
	switch op {
	case ir.OpNand, ir.OpNor, ir.OpXnor:
		acc = m.xorRec(True, acc)
	}
	return acc, nil
}
