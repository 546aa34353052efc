package bdd

import "math/big"

// Model counting and the two structural operations the exact audit
// needs on top of the apply kernels: existential quantification
// (project the key variables out of a difference function) and the
// Boolean difference ∂f/∂v = f|v=0 ⊕ f|v=1 (the inputs and keys on
// which flipping v flips f, built in one pass without a second compile
// or a flipped copy of f).
//
// Each operation memoises in the Manager's memo, indexed by node ID: the
// recursion only visits f and its descendants, which exist at the
// call's start. Every call moves the memo's generation on, which empties
// it at once, and grows it to the arena, so the memo tracks the largest
// diagram and no call allocates one of its own.
//
// A model count is at most 2^NumVars, so below 64 variables SatCount
// counts in machine words and allocates only its result; from 64
// variables on it counts in big integers.

// memoEntry is one node's slot in the Manager's memo: its SatCount
// (word below 64 variables, count from 64 on) or its Exists or Diff
// result (node), valid while gen equals the Manager's memoGen.
type memoEntry struct {
	gen   uint32
	node  Node
	word  uint64
	count *big.Int
}

// The terminals' counts. countRec never modifies a count it reads.
var bigZero, bigOne = big.NewInt(0), big.NewInt(1)

// beginMemo empties the memo for a new operation and grows it to the
// arena. Only a wrapped generation counter clears it.
func (m *Manager) beginMemo() {
	if n := len(m.nodes); len(m.memo) < n {
		m.memo = append(m.memo, make([]memoEntry, n-len(m.memo))...)
	}
	if m.memoGen++; m.memoGen == 0 {
		clear(m.memo)
		m.memoGen = 1
	}
}

// SatCount returns the exact number of satisfying assignments of f
// over all NumVars variables, as a big integer (counts routinely
// exceed 2^53, and exactness is the point of this package). Pure read:
// never allocates nodes, never trips the budget.
func (m *Manager) SatCount(f Node) *big.Int {
	m.beginMemo()
	// Both recursions count over the variables at or below f's level;
	// the levels above the root are free.
	top := uint(m.nodes[f].level)
	if m.numVars < 64 {
		return new(big.Int).SetUint64(m.countWord(f) << top)
	}
	return new(big.Int).Lsh(m.countRec(f), top)
}

// countWord counts satisfying assignments of the variables with level
// >= level(f) in a machine word. Below 64 variables no count reaches
// 2^64: a decision node's is under 2^(NumVars-level).
func (m *Manager) countWord(f Node) uint64 {
	switch {
	case f == False:
		return 0
	case f == True:
		return 1
	case m.memo[f].gen == m.memoGen:
		return m.memo[f].word
	}
	n := m.nodes[f]
	c := m.countWord(n.low)<<uint(m.nodes[n.low].level-n.level-1) +
		m.countWord(n.high)<<uint(m.nodes[n.high].level-n.level-1)
	m.memo[f] = memoEntry{gen: m.memoGen, word: c}
	return c
}

// countRec is countWord in big integers, for 64 variables or more.
func (m *Manager) countRec(f Node) *big.Int {
	switch {
	case f == False:
		return bigZero
	case f == True:
		return bigOne
	case m.memo[f].gen == m.memoGen:
		return m.memo[f].count
	}
	n := m.nodes[f]
	lo := m.countRec(n.low)
	hi := m.countRec(n.high)
	c := new(big.Int).Lsh(lo, uint(m.nodes[n.low].level-n.level-1))
	c.Add(c, new(big.Int).Lsh(hi, uint(m.nodes[n.high].level-n.level-1)))
	m.memo[f] = memoEntry{gen: m.memoGen, count: c}
	return c
}

// Exists existentially quantifies the variables whose levels are set
// in quant (indexed by level): the result is independent of them and
// true wherever some assignment of them satisfied f.
func (m *Manager) Exists(f Node, quant []bool) (n Node, err error) {
	defer m.guard(&n, &err)
	m.beginMemo()
	return m.existsRec(f, quant), nil
}

func (m *Manager) existsRec(f Node, quant []bool) Node {
	nd := m.nodes[f]
	if int(nd.level) >= m.numVars {
		return f
	}
	if e := m.memo[f]; e.gen == m.memoGen {
		return e.node
	}
	lo := m.existsRec(nd.low, quant)
	hi := m.existsRec(nd.high, quant)
	var r Node
	if quant[nd.level] {
		r = m.iteRec(lo, True, hi) // ∃v. f = f|v=0 + f|v=1
	} else {
		r = m.mk(nd.level, lo, hi)
	}
	m.memo[f] = memoEntry{gen: m.memoGen, node: r}
	return r
}

// Diff returns the Boolean difference of f with respect to variable v,
// f|v=0 ⊕ f|v=1: true exactly where flipping v flips f. The result does
// not depend on v. Nodes below v's level cannot depend on v, so their
// difference is False; a node at v's level gives its children's XOR;
// the nodes above are rebuilt over their children's differences.
func (m *Manager) Diff(f Node, v int) (n Node, err error) {
	defer m.guard(&n, &err)
	m.beginMemo()
	return m.diffRec(f, int32(v)), nil
}

func (m *Manager) diffRec(f Node, v int32) Node {
	nd := m.nodes[f]
	if nd.level > v {
		return False // terminal or ordered past v: independent of v
	}
	if e := m.memo[f]; e.gen == m.memoGen {
		return e.node
	}
	var r Node
	if nd.level == v {
		r = m.xorRec(nd.low, nd.high)
	} else {
		r = m.mk(nd.level, m.diffRec(nd.low, v), m.diffRec(nd.high, v))
	}
	m.memo[f] = memoEntry{gen: m.memoGen, node: r}
	return r
}

// AnySat returns one satisfying assignment of f as a slice indexed by
// variable level: 0/1 for a decided variable, -1 for a don't-care.
// Returns nil when f is unsatisfiable. The walk prefers the high
// branch, so the witness is deterministic.
func (m *Manager) AnySat(f Node) []int8 {
	if f == False {
		return nil
	}
	out := make([]int8, m.numVars)
	for i := range out {
		out[i] = -1
	}
	for f != True {
		n := m.nodes[f]
		if n.high != False {
			out[n.level] = 1
			f = n.high
		} else {
			out[n.level] = 0
			f = n.low
		}
	}
	return out
}
