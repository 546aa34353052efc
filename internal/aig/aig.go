// Package aig implements And-Inverter Graphs with structural hashing and
// local rewriting. It plays ABC's role in the paper's Table I flow: both
// the original and the protected circuit are normalized (strash →
// refactor → rewrite in the paper; strash + local Boolean rules + tree
// balancing here) before area is measured as node count and delay as
// logic levels, so the reported overheads compare like against like.
package aig

import (
	"fmt"

	"orap/internal/ir"
)

// Lit is an AIG literal: node index times two, plus one when complemented.
// Node 0 is the constant-true node, so Lit 0 is const1 and Lit 1 const0.
type Lit uint32

// Constant literals.
const (
	ConstTrue  Lit = 0
	ConstFalse Lit = 1
)

// mkLit builds a literal.
func mkLit(node int, compl bool) Lit {
	l := Lit(node << 1)
	if compl {
		l |= 1
	}
	return l
}

// node returns the literal's node index.
func (l Lit) node() int { return int(l >> 1) }

// compl reports whether the literal is complemented.
func (l Lit) compl() bool { return l&1 == 1 }

// not returns the complemented literal.
func (l Lit) not() Lit { return l ^ 1 }

// node is an AND2 node (or a PI / constant placeholder).
type node struct {
	f0, f1 Lit // fanins; PIs and the constant have f0 == f1 == 0 and isPI/const flags
	isPI   bool
	level  int32
}

// AIG is an and-inverter graph under construction.
type AIG struct {
	nodes []node
	pis   []int
	pos   []Lit
	// strash maps (f0, f1) to the existing node.
	strash map[[2]Lit]int
}

// newAIG returns an empty AIG containing only the constant node.
func newAIG() *AIG {
	g := &AIG{strash: make(map[[2]Lit]int)}
	g.nodes = append(g.nodes, node{}) // node 0: constant true
	return g
}

// addPI appends a primary input and returns its literal.
func (g *AIG) addPI() Lit {
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{isPI: true})
	g.pis = append(g.pis, id)
	return mkLit(id, false)
}

// addPO marks a literal as a primary output.
func (g *AIG) addPO(l Lit) { g.pos = append(g.pos, l) }

// and returns a literal for a ∧ b, building a node only when no
// simplification or structural match applies.
func (g *AIG) and(a, b Lit) Lit {
	// Normalize order.
	if a > b {
		a, b = b, a
	}
	// Trivial rules.
	switch {
	case a == ConstFalse || b == ConstFalse:
		return ConstFalse
	case a == ConstTrue:
		return b
	case b == ConstTrue:
		return a
	case a == b:
		return a
	case a == b.not():
		return ConstFalse
	}
	// One-level containment rules: a ∧ (a ∧ x) = a ∧ x, a ∧ (¬a ∧ x) = 0.
	if s, ok := g.containment(a, b); ok {
		return s
	}
	if s, ok := g.containment(b, a); ok {
		return s
	}
	key := [2]Lit{a, b}
	if id, ok := g.strash[key]; ok {
		return mkLit(id, false)
	}
	id := len(g.nodes)
	lv := max(g.levelOf(a), g.levelOf(b)) + 1
	g.nodes = append(g.nodes, node{f0: a, f1: b, level: lv})
	g.strash[key] = id
	return mkLit(id, false)
}

// containment simplifies a ∧ b when b is an uncomplemented AND node that
// already contains a or ¬a as a direct fanin.
func (g *AIG) containment(a, b Lit) (Lit, bool) {
	if b.compl() {
		return 0, false
	}
	n := &g.nodes[b.node()]
	if n.isPI || b.node() == 0 {
		return 0, false
	}
	if n.f0 == a || n.f1 == a {
		return b, true // absorption
	}
	if n.f0 == a.not() || n.f1 == a.not() {
		return ConstFalse, true // contradiction
	}
	return 0, false
}

// xor builds a ⊕ b (three AND nodes in the worst case).
func (g *AIG) xor(a, b Lit) Lit {
	return g.and(g.and(a, b.not()).not(), g.and(a.not(), b).not()).not()
}

func (g *AIG) levelOf(l Lit) int32 {
	return g.nodes[l.node()].level
}

// levels returns the maximum AND level over the primary outputs — the
// delay metric.
func (g *AIG) levels() int {
	lv := int32(0)
	for _, o := range g.pos {
		if l := g.levelOf(o); l > lv {
			lv = l
		}
	}
	return int(lv)
}

// CountUsed returns the number of AND nodes in the transitive fanin of the
// outputs (the area after a dangling-node sweep) and their depth.
func (g *AIG) CountUsed() (ands, levels int) {
	used := make([]bool, len(g.nodes))
	var walk func(l Lit)
	walk = func(l Lit) {
		id := l.node()
		if used[id] {
			return
		}
		used[id] = true
		n := &g.nodes[id]
		if n.isPI || id == 0 {
			return
		}
		walk(n.f0)
		walk(n.f1)
	}
	for _, o := range g.pos {
		walk(o)
	}
	for id, u := range used {
		if u && !g.nodes[id].isPI && id != 0 {
			ands++
		}
	}
	return ands, g.levels()
}

// FromProgram strashes a compiled circuit into a fresh AIG. Key inputs
// become ordinary PIs (appended after the primary inputs). Multi-input
// gates are decomposed into balanced trees, which also realizes the
// balancing effect of a resynthesis pass. Construction walks the
// program's topological order, so the same program always yields the
// same graph.
func FromProgram(prog *ir.Program) (*AIG, error) {
	g := newAIG()
	in := make([]Lit, len(prog.Inputs))
	for i := range in {
		in[i] = g.addPI()
	}
	lit, err := g.addProgram(prog, in)
	if err != nil {
		return nil, err
	}
	for _, o := range prog.POs {
		g.addPO(lit[o])
	}
	return g, nil
}

// addProgram strashes prog into g with its inputs (prog.Inputs order:
// primary inputs, then keys) driven by the literals in, and returns the
// literal of every program node. Two programs added over the same input
// literals share every gate that hashes alike.
func (g *AIG) addProgram(prog *ir.Program, in []Lit) ([]Lit, error) {
	lit := make([]Lit, prog.NumNodes())
	for i, id := range prog.Inputs {
		lit[id] = in[i]
	}
	for _, id32 := range prog.Order {
		id := int(id32)
		op := prog.Ops[id]
		fanin := prog.FaninSpan(id)
		switch op {
		case ir.OpInput:
			// Already assigned.
		case ir.OpConst0:
			lit[id] = ConstFalse
		case ir.OpConst1:
			lit[id] = ConstTrue
		case ir.OpBuf:
			lit[id] = lit[fanin[0]]
		case ir.OpNot:
			lit[id] = lit[fanin[0]].not()
		case ir.OpAnd, ir.OpNand, ir.OpOr, ir.OpNor:
			fan := make([]Lit, len(fanin))
			for i, f := range fanin {
				fan[i] = lit[f]
				if op == ir.OpOr || op == ir.OpNor {
					fan[i] = fan[i].not()
				}
			}
			v := g.balancedAnd(fan)
			if op == ir.OpNand || op == ir.OpOr {
				v = v.not()
			}
			lit[id] = v
		case ir.OpXor, ir.OpXnor:
			v := lit[fanin[0]]
			for _, f := range fanin[1:] {
				v = g.xor(v, lit[f])
			}
			if op == ir.OpXnor {
				v = v.not()
			}
			lit[id] = v
		default:
			return nil, fmt.Errorf("aig: unsupported gate type %v", op)
		}
	}
	return lit, nil
}

// balancedAnd conjoins literals as a balanced tree (minimizing depth),
// sorted by level so shallow inputs pair first.
func (g *AIG) balancedAnd(fan []Lit) Lit {
	if len(fan) == 0 {
		return ConstTrue
	}
	work := append([]Lit(nil), fan...)
	for len(work) > 1 {
		// Repeatedly combine the two shallowest literals.
		ai, bi := g.twoShallowest(work)
		a, b := work[ai], work[bi]
		// Remove bi first (bi > ai by construction).
		work = append(work[:bi], work[bi+1:]...)
		work[ai] = g.and(a, b)
	}
	return work[0]
}

// twoShallowest returns the indices of the two lowest-level literals,
// first index smaller.
func (g *AIG) twoShallowest(work []Lit) (int, int) {
	a, b := 0, 1
	if g.levelOf(work[b]) < g.levelOf(work[a]) {
		a, b = b, a
	}
	for i := 2; i < len(work); i++ {
		l := g.levelOf(work[i])
		switch {
		case l < g.levelOf(work[a]):
			b = a
			a = i
		case l < g.levelOf(work[b]):
			b = i
		}
	}
	if a > b {
		a, b = b, a
	}
	return a, b
}
