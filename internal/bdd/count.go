package bdd

import "math/big"

// Model counting and the two structural operations the exact audit
// needs on top of the ITE kernel: existential quantification (project
// the key variables out of a difference function) and single-variable
// flip (substitute v ↦ ¬v, which turns F(x, k) into F(x, k⊕e_v)
// without a second compile).
//
// Each operation memoises in the Manager's memo, indexed by node ID: the
// recursion only visits f and its descendants, which exist at the
// call's start. Every call moves the memo's generation on, which empties
// it at once, and grows it to the arena, so the memo tracks the largest
// diagram and no call allocates one of its own.

// memoEntry is one node's slot in the Manager's memo: its SatCount
// (count) or its Exists or Flip result (node), valid while gen equals
// the Manager's memoGen.
type memoEntry struct {
	gen   uint32
	node  Node
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
	cnt := m.countRec(f)
	// countRec counts over the variables at or below f's level; the
	// levels above the root are free.
	return new(big.Int).Lsh(cnt, uint(m.nodes[f].level))
}

// countRec counts satisfying assignments of the variables with level
// >= level(f).
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

// Flip substitutes ¬v for variable v: Flip(F, v)(…, v, …) = F(…, ¬v, …).
// Nodes at levels below v cannot depend on v and are shared untouched,
// so the operation is linear in the nodes at or above v's level.
func (m *Manager) Flip(f Node, v int) (n Node, err error) {
	defer m.guard(&n, &err)
	m.beginMemo()
	return m.flipRec(f, int32(v)), nil
}

func (m *Manager) flipRec(f Node, v int32) Node {
	nd := m.nodes[f]
	if nd.level > v {
		return f // terminal or ordered past v: independent of v
	}
	if e := m.memo[f]; e.gen == m.memoGen {
		return e.node
	}
	var r Node
	if nd.level == v {
		r = m.mk(v, nd.high, nd.low)
	} else {
		r = m.mk(nd.level, m.flipRec(nd.low, v), m.flipRec(nd.high, v))
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
