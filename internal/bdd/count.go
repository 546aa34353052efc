package bdd

import "math/big"

// Model counting and the two structural operations the exact audit
// needs on top of the ITE kernel: existential quantification (project
// the key variables out of a difference function) and single-variable
// flip (substitute v ↦ ¬v, which turns F(x, k) into F(x, k⊕e_v)
// without a second compile).
//
// Each operation memoises per call in a slice indexed by node ID and
// sized to the arena at the call's start: the recursion only visits f
// and its descendants, which already exist. Exists and Flip mark an
// empty entry with False, because neither maps a decision node to
// False: a decision node is satisfiable, and so are its projection and
// its flip.

// SatCount returns the exact number of satisfying assignments of f
// over all NumVars variables, as a big integer (counts routinely
// exceed 2^53, and exactness is the point of this package). Pure read:
// never allocates nodes, never trips the budget.
func (m *Manager) SatCount(f Node) *big.Int {
	memo := make([]*big.Int, len(m.nodes))
	memo[False], memo[True] = big.NewInt(0), big.NewInt(1)
	cnt := m.countRec(f, memo)
	// countRec counts over the variables at or below f's level; the
	// levels above the root are free.
	return new(big.Int).Lsh(cnt, uint(m.nodes[f].level))
}

// countRec counts satisfying assignments of the variables with level
// >= level(f).
func (m *Manager) countRec(f Node, memo []*big.Int) *big.Int {
	if c := memo[f]; c != nil {
		return c
	}
	n := m.nodes[f]
	lo := m.countRec(n.low, memo)
	hi := m.countRec(n.high, memo)
	c := new(big.Int).Lsh(lo, uint(m.nodes[n.low].level-n.level-1))
	c.Add(c, new(big.Int).Lsh(hi, uint(m.nodes[n.high].level-n.level-1)))
	memo[f] = c
	return c
}

// SatFraction returns SatCount(f) / 2^NumVars as a float64 — the
// probability a uniformly random assignment satisfies f.
func (m *Manager) SatFraction(f Node) float64 {
	cnt := new(big.Float).SetInt(m.SatCount(f))
	space := new(big.Float).SetMantExp(big.NewFloat(1), m.numVars)
	out, _ := new(big.Float).Quo(cnt, space).Float64()
	return out
}

// Exists existentially quantifies the variables whose levels are set
// in quant (indexed by level): the result is independent of them and
// true wherever some assignment of them satisfied f.
func (m *Manager) Exists(f Node, quant []bool) (n Node, err error) {
	defer m.guard(&n, &err)
	return m.existsRec(f, quant, make([]Node, len(m.nodes))), nil
}

func (m *Manager) existsRec(f Node, quant []bool, memo []Node) Node {
	nd := m.nodes[f]
	if int(nd.level) >= m.numVars {
		return f
	}
	if r := memo[f]; r != False {
		return r
	}
	lo := m.existsRec(nd.low, quant, memo)
	hi := m.existsRec(nd.high, quant, memo)
	var r Node
	if quant[nd.level] {
		r = m.iteRec(lo, True, hi) // ∃v. f = f|v=0 + f|v=1
	} else {
		r = m.mk(nd.level, lo, hi)
	}
	memo[f] = r
	return r
}

// Flip substitutes ¬v for variable v: Flip(F, v)(…, v, …) = F(…, ¬v, …).
// Nodes at levels below v cannot depend on v and are shared untouched,
// so the operation is linear in the nodes at or above v's level.
func (m *Manager) Flip(f Node, v int) (n Node, err error) {
	defer m.guard(&n, &err)
	return m.flipRec(f, int32(v), make([]Node, len(m.nodes))), nil
}

func (m *Manager) flipRec(f Node, v int32, memo []Node) Node {
	nd := m.nodes[f]
	if nd.level > v {
		return f // terminal or ordered past v: independent of v
	}
	if r := memo[f]; r != False {
		return r
	}
	var r Node
	if nd.level == v {
		r = m.mk(v, nd.high, nd.low)
	} else {
		r = m.mk(nd.level, m.flipRec(nd.low, v, memo), m.flipRec(nd.high, v, memo))
	}
	memo[f] = r
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
