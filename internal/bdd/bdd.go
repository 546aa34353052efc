// Package bdd is a from-scratch reduced ordered binary decision diagram
// (ROBDD) engine: the exact symbolic backend behind internal/audit's
// -exact analyses. Where the dataflow engine's abstract domains answer
// "at most" (cone membership over-approximates sensitization), a BDD
// represents a cone's Boolean function canonically, so the audit can
// report model-counted quantities — corruption rates, distinguishing
// input counts, equivalence proofs — exactly.
//
// Design:
//
//   - Hash-consed unique table: mk(level, low, high) returns the one
//     node for that triple, so two equal functions built in the same
//     Manager are the same node ID and equivalence checking is pointer
//     comparison. The table is open-addressed (linear probing over node
//     IDs, the triple read back from the node arena) and lossless. No
//     complement edges — the canonical form is the plain Bryant
//     reduction (no duplicate triples, no redundant tests), which keeps
//     every traversal branch-free at the cost of explicit negation
//     nodes.
//   - Two memoised apply kernels sharing one computed cache: ITE, the
//     standard Brace/Rudell/Bryant kernel, for AND, OR and Exists, and
//     a dedicated XOR apply for XOR, XNOR and negation (XOR with True).
//     Without complement edges, XOR as ITE(f, ¬g, g) would first build
//     all of ¬g; the XOR apply negates only the parts of g that f's
//     True leaves reach. The cache is direct-mapped and lossy
//     (CUDD-style): a colliding entry overwrites the old one, and a
//     miss recomputes through the lossless unique table, which hands
//     back the nodes the first computation made. So evictions cost
//     time, never a different node ID or an extra node.
//   - Sizes follow the node count: both tables start at 1024 slots and
//     double with the unique table, which is kept at least twice the
//     node count, so a Manager's memory tracks the largest diagram it
//     built and never its budget.
//   - Mark and Rollback: nodes are never garbage-collected one by one,
//     but Rollback deletes everything created since a Mark, and Reset
//     empties the Manager for a new variable count while keeping its
//     tables. Both take time proportional to the nodes they delete, so
//     one Manager can serve many small computations in turn (the exact
//     audit runs each key bit on top of its cone this way).
//   - Hard node budget: a Manager refuses to grow past its budget and
//     unwinds the in-flight operation with a typed ErrBudget, so
//     callers degrade gracefully to the dataflow approximation instead
//     of hanging on an exponential cone. A tripped Manager stays
//     usable for reads and for further (re-failing) operations.
//   - Variable order comes from the caller; InputOrder seeds it from
//     the ir.Program's level-monotone order (see compile.go).
//   - Exact model counts run in machine words below 64 variables and
//     in big integers from 64 on; Diff builds a Boolean difference in
//     one pass (count.go).
//
// The package has no dependencies beyond the standard library and
// internal/ir, and a Manager is single-goroutine by design (callers
// wanting parallelism build one Manager per goroutine; managers share
// nothing).
package bdd

import (
	"errors"
	"fmt"
)

// Node is a function handle: an index into its Manager's node arena.
// The terminals False and True are valid in every Manager. Nodes from
// different Managers must never be mixed; the Manager cannot detect it.
type Node = int32

// Terminal nodes, present in every Manager.
const (
	False Node = 0
	True  Node = 1
)

// ErrBudget is returned (wrapped) when an operation would grow the
// Manager past its node budget. Callers match it with errors.Is and
// fall back to an approximate analysis.
var ErrBudget = errors.New("bdd: node budget exhausted")

// budgetMark is the panic value the recursive kernel unwinds with when
// mk hits the budget; exported entry points recover it into ErrBudget.
type budgetMark struct{}

// node is one decision node: test variable `level`, follow low on 0,
// high on 1. Terminals carry level == numVars so the variable order
// can be compared without special cases.
type node struct {
	level     int32
	low, high Node
}

// Stats is the Manager's telemetry, shaped like the oracle layer's
// ChannelStats: enough to see whether the cache is working and how
// close to the budget a run came.
type Stats struct {
	// Nodes is the number of decision nodes allocated (terminals
	// excluded); with no garbage collection this is also the peak.
	Nodes int
	// Budget echoes the configured node budget.
	Budget int
	// CacheLookups and CacheHits count computed-cache probes, ITE and
	// XOR alike. The cache is lossy, so a probe for an operation
	// computed earlier misses when a colliding operation has
	// overwritten its entry; the counts depend on the table sizes and
	// the fixed hash, never on the process.
	CacheLookups, CacheHits int64
}

// HitRate returns the computed-cache hit fraction in [0, 1].
func (s Stats) HitRate() float64 {
	if s.CacheLookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheLookups)
}

// Add accumulates another run's counters (the exact audit sums its
// cone groups into one telemetry line).
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	if o.Budget > s.Budget {
		s.Budget = o.Budget
	}
	s.CacheLookups += o.CacheLookups
	s.CacheHits += o.CacheHits
}

// DefaultBudget is the node budget a Manager gets when the caller
// passes 0: large enough for every shipped circuit's cones, small
// enough that a blowing-up cone aborts in well under a second.
const DefaultBudget = 1 << 19

// Manager owns a DAG of hash-consed decision nodes over a fixed set of
// numVars variables (levels 0..numVars-1, level 0 nearest the root).
type Manager struct {
	numVars int
	budget  int
	nodes   []node
	// unique holds the ID of every decision node, open-addressed with
	// linear probing. Its length is a power of two at least twice the
	// decision-node count; False marks an empty slot, since terminals
	// are never stored.
	unique []Node
	// ite is the direct-mapped computed cache of iteRec and xorRec, as
	// long as unique and emptied whenever unique grows. An XOR entry
	// carries h = xorTag, which no ITE operand is. An entry counts only
	// while its gen equals the Manager's: Rollback and Reset move gen
	// on, because a deleted node's ID is handed out again. An entry with
	// f == False is empty: neither kernel caches a False f.
	ite []iteEntry
	gen uint32
	// memo serves SatCount, Exists and Diff (count.go).
	memo    []memoEntry
	memoGen uint32
	stats   Stats
}

// iteEntry is one computed-cache slot: ITE(f, g, h) = r, made in
// cache generation gen.
type iteEntry struct {
	f, g, h, r Node
	gen        uint32
}

// Checkpoint is a diagram state that Rollback returns to.
type Checkpoint struct{ nodes int }

// initSlots is the starting length of the unique table and the
// computed cache.
const initSlots = 1 << 10

// slot hashes a triple into a table of mask+1 slots with a fixed
// multiplicative mix. There is no per-process seed, so the cache's
// collisions, and with them Stats.CacheLookups and CacheHits, repeat
// exactly from run to run.
func slot(a, b, c int32, mask int) int {
	h := (uint64(uint32(a))*0x9e3779b97f4a7c15 + uint64(uint32(b))) * 0xc2b2ae3d27d4eb4f
	h = (h + uint64(uint32(c))) * 0x165667b19e3779f9
	return int(h>>32) & mask
}

// New returns a Manager over numVars variables with the given node
// budget (0 selects DefaultBudget).
func New(numVars, budget int) *Manager {
	if budget <= 0 {
		budget = DefaultBudget
	}
	m := &Manager{
		numVars: numVars,
		budget:  budget,
		nodes:   make([]node, 2, initSlots),
		unique:  make([]Node, initSlots),
		ite:     make([]iteEntry, initSlots),
	}
	tl := int32(numVars)
	m.nodes[False] = node{level: tl, low: False, high: False}
	m.nodes[True] = node{level: tl, low: True, high: True}
	return m
}

// NumVars returns the variable count the Manager was built for.
func (m *Manager) NumVars() int { return m.numVars }

// Mark returns a checkpoint of the current diagram for Rollback.
func (m *Manager) Mark() Checkpoint { return Checkpoint{len(m.nodes)} }

// Rollback deletes every node created since c was marked. Nodes made
// before the mark keep their IDs; later ones must not be used again,
// as their IDs are handed out anew. Node IDs follow creation order and
// grow reinserts in ID order, so a node's probe chain in the unique
// table crosses only older nodes. Every deleted node is newer than
// every survivor, so emptying their slots, newest first, leaves the
// survivors' chains intact, even when the table grew after the mark.
// The time is proportional to the nodes deleted, never to the table.
func (m *Manager) Rollback(c Checkpoint) {
	if c.nodes < 2 || c.nodes > len(m.nodes) {
		panic("bdd: Rollback to a checkpoint the diagram does not contain")
	}
	mask := len(m.unique) - 1
	for id := Node(len(m.nodes) - 1); id >= Node(c.nodes); id-- {
		n := m.nodes[id]
		i := slot(n.level, n.low, n.high, mask)
		for m.unique[i] != id {
			i = (i + 1) & mask
		}
		m.unique[i] = False
	}
	m.nodes = m.nodes[:c.nodes]
	// Cached results may name deleted IDs. A new generation retires
	// every entry at once; only a wrapped counter could revive one.
	if m.gen++; m.gen == 0 {
		clear(m.ite)
	}
}

// Reset empties the Manager for reuse over numVars variables: it then
// behaves like New(numVars, budget) with zeroed Stats, but keeps the
// tables at the size its largest diagram needed. Like Rollback it
// takes time proportional to the nodes it deletes.
func (m *Manager) Reset(numVars int) {
	m.Rollback(Checkpoint{2})
	m.numVars = numVars
	m.nodes[False].level = int32(numVars)
	m.nodes[True].level = int32(numVars)
	m.stats = Stats{}
}

// Stats returns a snapshot of the Manager's telemetry.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.Nodes = len(m.nodes) - 2
	s.Budget = m.budget
	return s
}

// budgetErr builds the typed error an unwound operation reports.
func (m *Manager) budgetErr() error {
	return fmt.Errorf("%w (budget %d nodes, %d variables)", ErrBudget, m.budget, m.numVars)
}

// guard converts a budgetMark unwind into ErrBudget; every exported
// node-building operation defers it.
func (m *Manager) guard(n *Node, err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(budgetMark); !ok {
			panic(r)
		}
		*n = False
		*err = m.budgetErr()
	}
}

// mk returns the unique node (level, low, high), applying both
// reduction rules: a redundant test collapses to its child, and an
// existing triple is reused. Panics with budgetMark past the budget.
func (m *Manager) mk(level int32, low, high Node) Node {
	if low == high {
		return low
	}
	mask := len(m.unique) - 1
	i := slot(level, low, high, mask)
	for ; m.unique[i] != False; i = (i + 1) & mask {
		if n := m.nodes[m.unique[i]]; n.level == level && n.low == low && n.high == high {
			return m.unique[i]
		}
	}
	if len(m.nodes)-2 >= m.budget {
		panic(budgetMark{})
	}
	id := Node(len(m.nodes))
	m.nodes = append(m.nodes, node{level, low, high})
	m.unique[i] = id
	if len(m.unique) < 2*(len(m.nodes)-2) {
		m.grow()
	}
	return id
}

// grow doubles the unique table, reinserting every decision node, and
// replaces the computed cache with an empty one of the new length.
func (m *Manager) grow() {
	m.unique = make([]Node, 2*len(m.unique))
	mask := len(m.unique) - 1
	for id := Node(2); id < Node(len(m.nodes)); id++ {
		n := m.nodes[id]
		i := slot(n.level, n.low, n.high, mask)
		for m.unique[i] != False {
			i = (i + 1) & mask
		}
		m.unique[i] = id
	}
	m.ite = make([]iteEntry, len(m.unique))
}

// variable returns the function of variable v (level v tests v: 0 → False,
// 1 → True). v must be in [0, NumVars). The results must be named so
// guard's recover can overwrite them on a budget trip.
func (m *Manager) variable(v int) (n Node, err error) {
	if v < 0 || v >= m.numVars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", v, m.numVars)
	}
	defer m.guard(&n, &err)
	n = m.mk(int32(v), False, True)
	return n, nil
}

// constant returns the terminal for a constant.
func (m *Manager) constant(v bool) Node {
	if v {
		return True
	}
	return False
}

// cofactors splits f by variable lv: if f tests lv its children,
// otherwise (f is independent of lv, sitting deeper) f itself twice.
func (m *Manager) cofactors(f Node, lv int32) (Node, Node) {
	n := m.nodes[f]
	if n.level == lv {
		return n.low, n.high
	}
	return f, f
}

// iteRec is the memoised if-then-else kernel.
func (m *Manager) iteRec(f, g, h Node) Node {
	// Terminal and absorption cases, before touching the cache.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	// ITE(f, f, h) = ITE(f, 1, h); ITE(f, g, f) = ITE(f, g, 0).
	if f == g {
		g = True
	}
	if f == h {
		h = False
	}
	m.stats.CacheLookups++
	if e := m.ite[slot(f, g, h, len(m.ite)-1)]; e.f == f && e.g == g && e.h == h && e.gen == m.gen {
		m.stats.CacheHits++
		return e.r
	}
	top := m.nodes[f].level
	if l := m.nodes[g].level; l < top {
		top = l
	}
	if l := m.nodes[h].level; l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, m.iteRec(f0, g0, h0), m.iteRec(f1, g1, h1))
	// The recursion may have grown the tables, so hash again.
	m.ite[slot(f, g, h, len(m.ite)-1)] = iteEntry{f, g, h, r, m.gen}
	return r
}

// xorTag is the third operand under which xorRec files its results in
// the ITE cache.
const xorTag Node = -1

// xorRec is the memoised XOR kernel; xorRec(True, g) is ¬g. It shares
// the ITE cache, tagged with xorTag.
func (m *Manager) xorRec(f, g Node) Node {
	switch {
	case f == g:
		return False
	case f == False:
		return g
	case g == False:
		return f
	}
	// XOR commutes: order the operands so both orders share one entry.
	// Now False < f < g, so f is True or a decision node.
	if f > g {
		f, g = g, f
	}
	m.stats.CacheLookups++
	if e := m.ite[slot(f, g, xorTag, len(m.ite)-1)]; e.f == f && e.g == g && e.h == xorTag && e.gen == m.gen {
		m.stats.CacheHits++
		return e.r
	}
	top := min(m.nodes[f].level, m.nodes[g].level)
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	r := m.mk(top, m.xorRec(f0, g0), m.xorRec(f1, g1))
	// The recursion may have grown the tables, so hash again.
	m.ite[slot(f, g, xorTag, len(m.ite)-1)] = iteEntry{f, g, xorTag, r, m.gen}
	return r
}

// Or returns f+g.
func (m *Manager) Or(f, g Node) (n Node, err error) {
	defer m.guard(&n, &err)
	return m.iteRec(f, True, g), nil
}

// Xor returns f⊕g.
func (m *Manager) Xor(f, g Node) (n Node, err error) {
	defer m.guard(&n, &err)
	return m.xorRec(f, g), nil
}
