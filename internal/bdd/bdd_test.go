package bdd_test

import (
	"errors"
	"math/big"
	"testing"

	"orap/internal/bdd"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

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
func compileOutputs(t *testing.T, p *ir.Program, budget int) (*bdd.Manager, []bdd.Node, map[int32]int) {
	t.Helper()
	order := bdd.InputOrder(p)
	m := bdd.New(len(order), budget)
	cp := bdd.NewCompiler(m, p)
	varOf := make(map[int32]int, len(order))
	for v, id := range order {
		varOf[id] = v
		if err := cp.BindVar(id, v); err != nil {
			t.Fatal(err)
		}
	}
	outs := make([]bdd.Node, len(p.POs))
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
	m := bdd.New(2, 0)
	a, _ := m.Var(0)
	b, _ := m.Var(1)
	and, _ := m.And(a, b)
	or, _ := m.Or(a, b)
	xor, _ := m.Xor(a, b)
	na, _ := m.Not(a)
	for _, tc := range []struct {
		name string
		f    bdd.Node
		want [4]bool // (a,b) = 00, 01, 10, 11
	}{
		{"and", and, [4]bool{false, false, false, true}},
		{"or", or, [4]bool{false, true, true, true}},
		{"xor", xor, [4]bool{false, true, true, false}},
		{"nota", na, [4]bool{true, true, false, false}},
	} {
		for i, want := range tc.want {
			got := m.Eval(tc.f, []bool{i&2 != 0, i&1 != 0})
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
	m := bdd.New(3, 0)
	a, _ := m.Var(0)
	b, _ := m.Var(1)
	c, _ := m.Var(2)

	ab, _ := m.And(a, b)
	left, _ := m.Or(ab, c)    // ab + c
	ac, _ := m.Or(a, c)       // a + c
	bc, _ := m.Or(b, c)       // b + c
	right, _ := m.And(ac, bc) // (a+c)(b+c) = ab + c
	if left != right {
		t.Fatalf("ab+c and (a+c)(b+c) built different nodes %d, %d", left, right)
	}

	xx, _ := m.Xor(a, a)
	if xx != bdd.False {
		t.Fatalf("a xor a = node %d, want False", xx)
	}
	dn, _ := m.Not(a)
	dnn, _ := m.Not(dn)
	if dnn != a {
		t.Fatalf("double negation of a = node %d, want %d", dnn, a)
	}
}

func TestSatCountSmall(t *testing.T) {
	m := bdd.New(4, 0)
	a, _ := m.Var(0)
	d, _ := m.Var(3)
	f, _ := m.Or(a, d) // 2^4 - 4 = 12 models
	if got := m.SatCount(f); got.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("SatCount(a+d) = %v, want 12", got)
	}
	if got := m.SatCount(bdd.True); got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("SatCount(True) = %v, want 16", got)
	}
	if got := m.SatCount(bdd.False); got.Sign() != 0 {
		t.Fatalf("SatCount(False) = %v, want 0", got)
	}
	if got := m.SatFraction(f); got != 12.0/16.0 {
		t.Fatalf("SatFraction = %v, want 0.75", got)
	}
}

// TestUniqueTableGrowth builds parity over 4096 variables bottom-up,
// about 12k nodes: the unique table doubles five times from its initial
// 1024 slots, and every growth empties the computed cache. Hash-consing
// must survive the rehashes, so rebuilding the same function returns
// the same node without allocating one.
func TestUniqueTableGrowth(t *testing.T) {
	const n = 4096
	m := bdd.New(n, 0)
	parity := func() bdd.Node {
		acc, err := m.Var(n - 1)
		if err != nil {
			t.Fatal(err)
		}
		for v := n - 2; v >= 0; v-- {
			x, err := m.Var(v)
			if err != nil {
				t.Fatal(err)
			}
			if acc, err = m.Xor(x, acc); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}
	f := parity()
	nodes := m.Stats().Nodes
	if nodes < 8*1024 {
		t.Fatalf("parity over %d variables built only %d nodes; too few to grow the table five times", n, nodes)
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
		if got := m.Eval(f, assign); got != want {
			t.Fatalf("assignment %d: Eval = %v, XOR of the variables = %v", i, got, want)
		}
	}
	if g := parity(); g != f {
		t.Fatalf("second parity build returned node %d, first %d", g, f)
	}
	if got := m.Stats().Nodes; got != nodes {
		t.Fatalf("second parity build grew the manager from %d to %d nodes", nodes, got)
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
		ev := sim.EvaluatorFor(p)
		nPI := len(p.PIs)
		vars := make([]bool, nin)
		for v := 0; v < 1<<nin; v++ {
			full := make([]bool, 0, nin)
			for i := range p.Inputs {
				full = append(full, v>>uint(i)&1 == 1)
			}
			outBits, err := ev.Eval(full[:nPI], full[nPI:])
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
				if m.Eval(f, vars) != outBits[j] {
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
			a := m.Eval(flipped, vars)
			vars[v] = !vars[v]
			b := m.Eval(f, vars)
			vars[v] = !vars[v]
			if a != b {
				t.Fatalf("Flip(%d): disagreement at assignment %b", v, trial)
			}
		}
	}
}

func TestExistsQuantifiesOut(t *testing.T) {
	m := bdd.New(3, 0)
	a, _ := m.Var(0)
	b, _ := m.Var(1)
	c, _ := m.Var(2)
	abc, _ := m.And(a, b)
	abc, _ = m.And(abc, c)
	quant := []bool{false, true, false}
	e, err := m.Exists(abc, quant)
	if err != nil {
		t.Fatal(err)
	}
	// ∃b. abc = ac.
	ac, _ := m.And(a, c)
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
	m := bdd.New(3, 0)
	a, _ := m.Var(0)
	c, _ := m.Var(2)
	na, _ := m.Not(a)
	f, _ := m.And(na, c)
	w := m.AnySat(f)
	if w == nil {
		t.Fatal("AnySat returned nil for a satisfiable function")
	}
	assign := make([]bool, 3)
	for i, v := range w {
		assign[i] = v == 1
	}
	if !m.Eval(f, assign) {
		t.Fatalf("AnySat witness %v does not satisfy f", w)
	}
	if m.AnySat(bdd.False) != nil {
		t.Fatal("AnySat(False) must be nil")
	}
}

// TestBudgetTyped pins the degradation contract: a cone too big for
// the budget returns ErrBudget (matchable with errors.Is), leaves the
// manager usable, and never panics out of the package.
func TestBudgetTyped(t *testing.T) {
	p := compile(t, circuits.RippleAdder(8))
	order := bdd.InputOrder(p)
	m := bdd.New(len(order), 8) // absurdly small
	cp := bdd.NewCompiler(m, p)
	budgetHit := false
	for v, id := range order {
		if err := cp.BindVar(id, v); err != nil {
			if !errors.Is(err, bdd.ErrBudget) {
				t.Fatal(err)
			}
			budgetHit = true
		}
	}
	// Var itself must report the trip through the typed error, never a
	// silent (False, nil) — regression for the unnamed-results bug that
	// let a starved Manager "prove" cones constant.
	tiny := bdd.New(4, 1)
	if _, err := tiny.Var(0); err != nil {
		t.Fatalf("first Var within budget: %v", err)
	}
	if _, err := tiny.Var(1); !errors.Is(err, bdd.ErrBudget) {
		t.Fatalf("Var over budget: err = %v, want ErrBudget", err)
	}
	for _, o := range p.POs {
		if _, err := cp.Compile(o); err != nil {
			// Inputs past the tripped bind are unbound, so Compile may
			// report either the budget or the unbound cone input; both
			// are the degradation path, neither is a panic.
			if errors.Is(err, bdd.ErrBudget) {
				budgetHit = true
			}
		}
	}
	if !budgetHit {
		t.Fatal("an 8-node budget compiled an 8-bit adder; budget guard inert")
	}
	// The manager stays usable for reads and small operations.
	a, err := m.Var(0)
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
	a := bdd.InputOrder(p)
	b := bdd.InputOrder(p)
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
