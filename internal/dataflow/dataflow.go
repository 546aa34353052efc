// Package dataflow is the abstract-interpretation engine over the
// compiled circuit IR: one generic fixpoint solver that every static
// rule in internal/check and internal/audit shares, instead of each
// rule re-implementing its own propagation loop.
//
// A Domain is a small lattice-plus-transfer description of one analysis
// (join, equality, per-opcode transfer function), and Run is the only
// solver: one sweep over ir.Program's topological order (reversed for
// backward domains). On a combinational DAG every node's inputs
// (fanins for forward domains, fanouts for backward ones) come earlier
// in that sweep, so a single sweep IS the fixpoint, with no iteration.
//
// The four shipped domains are the pair/key-difference domain (Pair,
// bit-sliced over 64 key bits per Run), per-net key-taint sets
// (KeyTaint) and the two SCOAP-style testability scores
// (Controllability, Observability). Pair run with no tracked key is the
// ternary constant lattice {Unknown, 0, 1}, which internal/check's
// const-out rule reads.
// Plain reachability is not a domain: it is ir.Program's
// TransitiveFanin and TransitiveFanout, and the audit's control cone is
// ir.Program.KeyOnly, the key-only partition the Hamming-distance
// kernel shares.
package dataflow

import "orap/internal/ir"

// Direction orients a domain's transfer functions.
type Direction uint8

const (
	// Forward domains compute a node's value from its fanins; the
	// engine sweeps from inputs toward primary outputs.
	Forward Direction = iota
	// Backward domains compute a node's value from its fanouts; the
	// engine sweeps from primary outputs toward inputs.
	Backward
)

// Domain is one abstract interpretation over a compiled circuit: a
// join-semilattice of abstract values V with a per-node transfer
// function. Implementations hold the *ir.Program they were built for
// (Transfer dispatches on its opcodes).
type Domain[V any] interface {
	// Direction reports which way the domain's information flows.
	Direction() Direction
	// Join is the lattice least upper bound. The DAG solver itself
	// never joins (every node has exactly one transfer result); Join
	// defines the precision order a ⊑ b ⇔ Join(a, b) = b under which
	// every Transfer must be monotone — the property the engine's
	// fuzz tests enforce for each shipped domain.
	Join(a, b V) V
	// Equal reports whether two abstract values coincide; with Join it
	// states the order the monotonicity tests check.
	Equal(a, b V) bool
	// Transfer computes node id's abstract value from its neighbours'
	// entries in vals (fanins for forward domains, fanouts for backward
	// ones), which the sweep has already solved.
	Transfer(id int, vals []V) V
}

// Run solves the domain to fixpoint over the whole program with one
// sweep and returns the abstract values indexed by node ID.
func Run[V any](p *ir.Program, d Domain[V]) []V {
	vals := make([]V, p.NumNodes())
	last, back := len(p.Order)-1, d.Direction() == Backward
	for k, id := range p.Order {
		if back {
			id = p.Order[last-k]
		}
		vals[id] = d.Transfer(int(id), vals)
	}
	return vals
}
