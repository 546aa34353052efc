package bdd

import (
	"errors"
	"math/big"
	"testing"

	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// and, not and eval are test-only operations: production code builds
// its functions through Compiler, Or and Xor. eval is the reference
// these tests and FuzzITE check every node against.

// and returns f·g.
func (m *Manager) and(f, g Node) (n Node, err error) {
	defer m.guard(&n, &err)
	return m.iteRec(f, g, False), nil
}

// not returns ¬f.
func (m *Manager) not(f Node) (n Node, err error) {
	defer m.guard(&n, &err)
	return m.iteRec(f, False, True), nil
}

// eval evaluates f under a complete assignment (indexed by variable
// level).
func (m *Manager) eval(f Node, assign []bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign[n.level] {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}

func compile(t *testing.T, c *netlist.Circuit) *ir.Program {
	t.Helper()
	p, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// compileOutputs builds a manager over every circuit input (variable
// order from InputOrder) and compiles all primary outputs.
func compileOutputs(t *testing.T, p *ir.Program, budget int) (*Manager, []Node, map[int32]int) {
	t.Helper()
	order := InputOrder(p)
	m := New(len(order), budget)
	cp := NewCompiler(m, p)
	varOf := make(map[int32]int, len(order))
	for v, id := range order {
		varOf[id] = v
		if err := cp.BindVar(id, v); err != nil {
			t.Fatal(err)
		}
	}
	outs := make([]Node, len(p.POs))
	for i, o := range p.POs {
		f, err := cp.Compile(o)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = f
	}
	return m, outs, varOf
}

func TestConnectiveTruthTables(t *testing.T) {
	m := New(2, 0)
	a, _ := m.variable(0)
	b, _ := m.variable(1)
	and, _ := m.and(a, b)
	or, _ := m.Or(a, b)
	xor, _ := m.Xor(a, b)
	na, _ := m.not(a)
	for _, tc := range []struct {
		name string
		f    Node
		want [4]bool // (a,b) = 00, 01, 10, 11
	}{
		{"and", and, [4]bool{false, false, false, true}},
		{"or", or, [4]bool{false, true, true, true}},
		{"xor", xor, [4]bool{false, true, true, false}},
		{"nota", na, [4]bool{true, true, false, false}},
	} {
		for i, want := range tc.want {
			got := m.eval(tc.f, []bool{i&2 != 0, i&1 != 0})
			if got != want {
				t.Errorf("%s(%d,%d) = %v, want %v", tc.name, i>>1, i&1, got, want)
			}
		}
	}
}

// TestCanonicity is the hash-consing contract: functions built through
// different operation sequences are the same node when and only when
// they are the same function.
func TestCanonicity(t *testing.T) {
	m := New(3, 0)
	a, _ := m.variable(0)
	b, _ := m.variable(1)
	c, _ := m.variable(2)

	ab, _ := m.and(a, b)
	left, _ := m.Or(ab, c)    // ab + c
	ac, _ := m.Or(a, c)       // a + c
	bc, _ := m.Or(b, c)       // b + c
	right, _ := m.and(ac, bc) // (a+c)(b+c) = ab + c
	if left != right {
		t.Fatalf("ab+c and (a+c)(b+c) built different nodes %d, %d", left, right)
	}

	xx, _ := m.Xor(a, a)
	if xx != False {
		t.Fatalf("a xor a = node %d, want False", xx)
	}
	dn, _ := m.not(a)
	dnn, _ := m.not(dn)
	if dnn != a {
		t.Fatalf("double negation of a = node %d, want %d", dnn, a)
	}
}

func TestSatCountSmall(t *testing.T) {
	m := New(4, 0)
	a, _ := m.variable(0)
	d, _ := m.variable(3)
	f, _ := m.Or(a, d) // 2^4 - 4 = 12 models
	if got := m.SatCount(f); got.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("SatCount(a+d) = %v, want 12", got)
	}
	if got := m.SatCount(True); got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("SatCount(True) = %v, want 16", got)
	}
	if got := m.SatCount(False); got.Sign() != 0 {
		t.Fatalf("SatCount(False) = %v, want 0", got)
	}
}

// TestUniqueTableGrowth builds parity over 4096 variables bottom-up,
// about 12k nodes: the unique table doubles five times from its initial
// 1024 slots, and every growth empties the computed cache. Hash-consing
// must survive the rehashes, so rebuilding the same function returns
// the same node without allocating one. The parity of the upper half
// is built first and marked, so the full build grows the table past
// the mark; rolling back must leave the probe chains of the surviving
// nodes intact, and the rebuild must be the first build again.
func TestUniqueTableGrowth(t *testing.T) {
	const n = 4096
	m := New(n, 0)
	// parity returns the XOR of the variables lo..n-1.
	parity := func(lo int) Node {
		acc, err := m.variable(n - 1)
		if err != nil {
			t.Fatal(err)
		}
		for v := n - 2; v >= lo; v-- {
			x, err := m.variable(v)
			if err != nil {
				t.Fatal(err)
			}
			if acc, err = m.Xor(x, acc); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}
	half := parity(n / 2)
	mark, halfNodes := m.Mark(), m.Stats().Nodes
	f := parity(0)
	nodes := m.Stats().Nodes
	if nodes < 8*1024 || 2*halfNodes > nodes {
		t.Fatalf("parity built %d nodes, its upper half %d; too few to grow the table five times, twice after the mark", nodes, halfNodes)
	}
	if got, want := m.SatCount(f), new(big.Int).Lsh(big.NewInt(1), n-1); got.Cmp(want) != 0 {
		t.Fatalf("SatCount(parity) = %v, want 2^%d", got, n-1)
	}
	r := rng.New(15)
	assign := make([]bool, n)
	for i := 0; i < 8; i++ {
		r.Bits(assign)
		want := false
		for _, b := range assign {
			want = want != b
		}
		if got := m.eval(f, assign); got != want {
			t.Fatalf("assignment %d: eval = %v, XOR of the variables = %v", i, got, want)
		}
	}
	if g := parity(0); g != f {
		t.Fatalf("second parity build returned node %d, first %d", g, f)
	}
	if got := m.Stats().Nodes; got != nodes {
		t.Fatalf("second parity build grew the manager from %d to %d nodes", nodes, got)
	}

	m.Rollback(mark)
	if got := m.Stats().Nodes; got != halfNodes {
		t.Fatalf("after Rollback the manager holds %d nodes, %d at the mark", got, halfNodes)
	}
	if g := parity(n / 2); g != half || m.Stats().Nodes != halfNodes {
		t.Fatalf("rebuilding the marked half gave node %d (was %d) and %d nodes (was %d)",
			g, half, m.Stats().Nodes, halfNodes)
	}
	if g := parity(0); g != f || m.Stats().Nodes != nodes {
		t.Fatalf("rebuild after Rollback gave node %d (was %d) and %d nodes (was %d)", g, f, m.Stats().Nodes, nodes)
	}
	if g := parity(0); g != f || m.Stats().Nodes != nodes {
		t.Fatalf("second rebuild after Rollback gave node %d (was %d) and %d nodes", g, f, m.Stats().Nodes)
	}
}

// TestMarkRollback pins the checkpoint contract on a small diagram:
// Rollback returns to the mark's node count, a function built before
// the mark rebuilds to the same node without a new one, and a cached
// result naming a deleted node is never handed back once its ID is
// reused.
func TestMarkRollback(t *testing.T) {
	m := New(4, 0)
	v := make([]Node, 4)
	for i := range v {
		var err error
		if v[i], err = m.variable(i); err != nil {
			t.Fatal(err)
		}
	}
	ab, _ := m.and(v[0], v[1])
	mark, before := m.Mark(), m.Stats().Nodes
	abc, _ := m.Or(ab, v[2])
	if _, err := m.Xor(abc, v[3]); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Nodes <= before {
		t.Fatal("the operations after the mark made no node")
	}
	m.Rollback(mark)
	if got := m.Stats().Nodes; got != before {
		t.Fatalf("after Rollback: %d nodes, %d at the mark", got, before)
	}
	if again, _ := m.and(v[0], v[1]); again != ab || m.Stats().Nodes != before {
		t.Fatalf("rebuilding a·b gave node %d (was %d) and %d nodes (was %d)", again, ab, m.Stats().Nodes, before)
	}
	// Refill the deleted IDs with other functions, then repeat the
	// computation the cache saw before the Rollback.
	for _, w := range []Node{v[2], v[3]} {
		if _, err := m.Xor(w, v[0]); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := m.Or(ab, v[2])
	assign := make([]bool, 4)
	for x := 0; x < 16; x++ {
		for i := range assign {
			assign[i] = x>>uint(i)&1 == 1
		}
		if want := assign[0] && assign[1] || assign[2]; m.eval(f, assign) != want {
			t.Fatalf("a·b + c after Rollback is wrong at assignment %04b", x)
		}
	}
}

// TestResetMatchesFresh reuses one manager for circuits of different
// widths: after Reset it must build every function exactly as a fresh
// manager does — same node IDs and counts, the same SatCount over the
// new variable count — with its telemetry zeroed.
func TestResetMatchesFresh(t *testing.T) {
	m := New(16, 0)
	for _, c := range []*netlist.Circuit{circuits.RippleAdder(6), circuits.C17(), circuits.Comparator4(), circuits.RippleAdder(4)} {
		p := compile(t, c)
		order := InputOrder(p)
		m.Reset(len(order))
		if st := m.Stats(); st.Nodes != 0 || st.CacheLookups != 0 || st.CacheHits != 0 || m.NumVars() != len(order) {
			t.Fatalf("%s: after Reset(%d): %d vars, stats %+v", c.Name, len(order), m.NumVars(), st)
		}
		fresh, want, _ := compileOutputs(t, p, 0)
		cp := NewCompiler(m, p)
		for v, id := range order {
			if err := cp.BindVar(id, v); err != nil {
				t.Fatal(err)
			}
		}
		for j, o := range p.POs {
			f, err := cp.Compile(o)
			if err != nil {
				t.Fatal(err)
			}
			if f != want[j] {
				t.Errorf("%s PO %d: node %d after Reset, %d fresh", c.Name, j, f, want[j])
			}
			if got, exp := m.SatCount(f), fresh.SatCount(want[j]); got.Cmp(exp) != 0 {
				t.Errorf("%s PO %d: SatCount %v after Reset, %v fresh", c.Name, j, got, exp)
			}
		}
		if got, exp := m.Stats().Nodes, fresh.Stats().Nodes; got != exp {
			t.Errorf("%s: %d nodes after Reset, %d fresh", c.Name, got, exp)
		}
	}
}

// TestSatCountAgainstEnumeration cross-checks SatCount against
// exhaustive enumeration of every shipped circuit's primary outputs —
// all are ≤ 14 inputs once locked, so the full truth table is cheap.
func TestSatCountAgainstEnumeration(t *testing.T) {
	cases := map[string]*netlist.Circuit{
		"c17":         circuits.C17(),
		"fulladder":   circuits.FullAdder(),
		"rippleadder": circuits.RippleAdder(4),
		"parity":      circuits.Parity(8),
		"comparator4": circuits.Comparator4(),
		"mux21":       circuits.Mux21(),
	}
	l, err := lock.RandomXOR(circuits.RippleAdder(4).Clone(), 3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cases["rippleadder+xor"] = l.Circuit

	for name, c := range cases {
		p := compile(t, c)
		nin := len(p.Inputs)
		if nin > 14 {
			t.Fatalf("%s: %d inputs, harness expects ≤ 14", name, nin)
		}
		m, outs, varOf := compileOutputs(t, p, 0)
		want := make([]int64, len(outs))
		nPI := len(p.PIs)
		vars := make([]bool, nin)
		for v := 0; v < 1<<nin; v++ {
			full := make([]bool, 0, nin)
			for i := range p.Inputs {
				full = append(full, v>>uint(i)&1 == 1)
			}
			outBits, err := p.Eval(full[:nPI], full[nPI:])
			if err != nil {
				t.Fatal(err)
			}
			for j, bit := range outBits {
				if bit {
					want[j]++
				}
			}
			// Mirror the same assignment into BDD variable order and
			// check Eval agreement on a sample of outputs.
			for i, id := range p.Inputs {
				vars[varOf[id]] = full[i]
			}
			for j, f := range outs {
				if m.eval(f, vars) != outBits[j] {
					t.Fatalf("%s: input %b PO %d: BDD and simulator disagree", name, v, j)
				}
			}
		}
		for j, f := range outs {
			if got := m.SatCount(f); got.Cmp(big.NewInt(want[j])) != 0 {
				t.Errorf("%s PO %d: SatCount %v, enumeration %d", name, j, got, want[j])
			}
		}
	}
}

func TestFlipMatchesRecompile(t *testing.T) {
	l, err := lock.Weighted(circuits.RippleAdder(4).Clone(), lock.WeightedOptions{
		KeyBits: 4, ControlWidth: 3, Rand: rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, l.Circuit)
	m, outs, varOf := compileOutputs(t, p, 0)
	kb := p.Keys[1]
	v := varOf[kb]
	vars := make([]bool, m.NumVars())
	for _, f := range outs {
		flipped, err := m.Flip(f, v)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 1<<uint(m.NumVars()); trial++ {
			for i := range vars {
				vars[i] = trial>>uint(i)&1 == 1
			}
			a := m.eval(flipped, vars)
			vars[v] = !vars[v]
			b := m.eval(f, vars)
			vars[v] = !vars[v]
			if a != b {
				t.Fatalf("Flip(%d): disagreement at assignment %b", v, trial)
			}
		}
	}
}

func TestExistsQuantifiesOut(t *testing.T) {
	m := New(3, 0)
	a, _ := m.variable(0)
	b, _ := m.variable(1)
	c, _ := m.variable(2)
	abc, _ := m.and(a, b)
	abc, _ = m.and(abc, c)
	quant := []bool{false, true, false}
	e, err := m.Exists(abc, quant)
	if err != nil {
		t.Fatal(err)
	}
	// ∃b. abc = ac.
	ac, _ := m.and(a, c)
	if e != ac {
		t.Fatalf("∃b.abc = node %d, want ac = %d", e, ac)
	}
	// Count over x-vars only: SatCount includes the quantified level as
	// a free variable, so the caller halves once per quantified var.
	cnt := m.SatCount(e)
	if cnt.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("SatCount(∃b.abc) = %v, want 2 (1 xz-model × free b)", cnt)
	}
}

func TestAnySat(t *testing.T) {
	m := New(3, 0)
	a, _ := m.variable(0)
	c, _ := m.variable(2)
	na, _ := m.not(a)
	f, _ := m.and(na, c)
	w := m.AnySat(f)
	if w == nil {
		t.Fatal("AnySat returned nil for a satisfiable function")
	}
	assign := make([]bool, 3)
	for i, v := range w {
		assign[i] = v == 1
	}
	if !m.eval(f, assign) {
		t.Fatalf("AnySat witness %v does not satisfy f", w)
	}
	if m.AnySat(False) != nil {
		t.Fatal("AnySat(False) must be nil")
	}
}

// TestBudgetTyped pins the degradation contract: a cone too big for
// the budget returns ErrBudget (matchable with errors.Is), leaves the
// manager usable, and never panics out of the package.
func TestBudgetTyped(t *testing.T) {
	p := compile(t, circuits.RippleAdder(8))
	order := InputOrder(p)
	m := New(len(order), 8) // absurdly small
	cp := NewCompiler(m, p)
	budgetHit := false
	for v, id := range order {
		if err := cp.BindVar(id, v); err != nil {
			if !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			budgetHit = true
		}
	}
	// Var itself must report the trip through the typed error, never a
	// silent (False, nil) — regression for the unnamed-results bug that
	// let a starved Manager "prove" cones constant.
	tiny := New(4, 1)
	if _, err := tiny.variable(0); err != nil {
		t.Fatalf("first Var within budget: %v", err)
	}
	if _, err := tiny.variable(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("Var over budget: err = %v, want ErrBudget", err)
	}
	for _, o := range p.POs {
		if _, err := cp.Compile(o); err != nil {
			// Inputs past the tripped bind are unbound, so Compile may
			// report either the budget or the unbound cone input; both
			// are the degradation path, neither is a panic.
			if errors.Is(err, ErrBudget) {
				budgetHit = true
			}
		}
	}
	if !budgetHit {
		t.Fatal("an 8-node budget compiled an 8-bit adder; budget guard inert")
	}
	// The manager stays usable for reads and small operations.
	a, err := m.variable(0)
	if err != nil {
		t.Fatalf("Var after budget trip: %v", err)
	}
	if got := m.SatCount(a); got.Sign() <= 0 {
		t.Fatalf("SatCount after budget trip = %v", got)
	}
	st := m.Stats()
	if st.Nodes > st.Budget {
		t.Fatalf("stats report %d nodes over budget %d", st.Nodes, st.Budget)
	}
}

// TestInputOrderDeterministic pins that the level-schedule seeding is
// stable and covers every input exactly once.
func TestInputOrderDeterministic(t *testing.T) {
	l, err := lock.Weighted(circuits.RippleAdder(6).Clone(), lock.WeightedOptions{
		KeyBits: 6, ControlWidth: 3, Rand: rng.New(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, l.Circuit)
	a := InputOrder(p)
	b := InputOrder(p)
	if len(a) != len(p.Inputs) {
		t.Fatalf("order has %d entries, want %d", len(a), len(p.Inputs))
	}
	seen := make(map[int32]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs across calls at %d: %d vs %d", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("input %d appears twice", a[i])
		}
		seen[a[i]] = true
	}
}
