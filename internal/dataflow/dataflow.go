// Package dataflow is the abstract-interpretation engine over the
// compiled circuit IR: one generic fixpoint solver that every static
// rule in internal/check and internal/audit shares, instead of each
// rule re-implementing its own propagation loop.
//
// A Domain is a small lattice-plus-transfer description of one analysis
// (bottom element, join, per-opcode transfer function); the engine
// solves it two ways:
//
//   - Run performs a full level sweep over ir.Program's wavefront
//     schedule. On a combinational DAG every node's inputs (fanins for
//     forward domains, fanouts for backward ones) live on earlier
//     levels of the sweep, so a single sweep IS the fixpoint — no
//     iteration, and the nodes of one level may be transferred in
//     parallel (internal/par) because they cannot depend on each other.
//   - Rerun incrementally repairs an existing fixpoint after a seed
//     node's abstract value changes, marking nodes dirty in a bitset
//     over topological position and scanning it forward along the CSR
//     fanout arrays (the same frontier discipline faultsim's
//     event-driven simulator uses). Each dirty node is transferred
//     exactly once, and propagation stops where the recomputed value
//     equals the old one — the per-key-bit analyses in internal/audit
//     touch only the key bit's fanout cone this way.
//
// The four shipped domains are the ternary constant lattice (Const),
// the pair/key-difference domain (Pair), per-net key-taint sets
// (KeyTaint) and SCOAP-style testability scores (Controllability /
// Observability). Callers are free to define their own domains against
// the same interface; internal/check's output-reachability pass and
// internal/audit's control-cone pass do exactly that.
package dataflow

import (
	"math/bits"

	"orap/internal/ir"
	"orap/internal/par"
)

// Direction orients a domain's transfer functions.
type Direction uint8

const (
	// Forward domains compute a node's value from its fanins; the
	// engine sweeps levels from inputs toward primary outputs.
	Forward Direction = iota
	// Backward domains compute a node's value from its fanouts; the
	// engine sweeps levels from primary outputs toward inputs. Rerun
	// supports forward domains only.
	Backward
)

// Domain is one abstract interpretation over a compiled circuit: a
// join-semilattice of abstract values V with a per-node transfer
// function. Implementations hold the *ir.Program they were built for
// (Transfer dispatches on its opcodes) and must be pure: the engine
// calls Transfer concurrently for independent nodes, so it may not
// mutate shared state.
type Domain[V any] interface {
	// Direction reports which way the domain's information flows.
	Direction() Direction
	// Bottom is the initial abstract value of every node. On DAG
	// programs each node is transferred exactly once per sweep before
	// anything reads it, so Bottom is only ever observed by domains
	// whose Transfer inspects not-yet-swept neighbours (there are none
	// among the shipped domains); it also anchors the lattice order the
	// property tests check (Bottom ⊑ v for every v).
	Bottom() V
	// Join is the lattice least upper bound. The DAG solver itself
	// never joins (every node has exactly one transfer result); Join
	// defines the precision order a ⊑ b ⇔ Join(a, b) = b under which
	// every Transfer must be monotone — the property the engine's
	// fuzz tests enforce for each shipped domain.
	Join(a, b V) V
	// Equal reports whether two abstract values coincide; Rerun uses it
	// to stop propagating unchanged values.
	Equal(a, b V) bool
	// Transfer computes node id's abstract value from its neighbours'
	// current values (fanins for forward domains, fanouts for backward
	// ones), read through get.
	Transfer(id int, get func(int) V) V
}

// Options tunes a fixpoint run.
type Options struct {
	// Workers bounds the worker pool sweeping each level (0 = all
	// cores, 1 = serial). Transfer results are pure functions of the
	// node, so the solution is bit-identical at any worker count.
	Workers int
}

// parGrain is the minimum level width worth fanning out to the pool;
// below it the per-item dispatch overhead dominates the transfers.
const parGrain = 128

// Run solves the domain to fixpoint over the whole program with one
// level sweep and returns the abstract values indexed by node ID.
func Run[V any](p *ir.Program, d Domain[V], opts Options) []V {
	n := p.NumNodes()
	vals := make([]V, n)
	bot := d.Bottom()
	for i := range vals {
		vals[i] = bot
	}
	get := func(id int) V { return vals[id] }
	levels := p.NumLevels()
	for l := 0; l < levels; l++ {
		lv := l
		if d.Direction() == Backward {
			lv = levels - 1 - l
		}
		nodes := p.Order[p.LevelStart[lv]:p.LevelStart[lv+1]]
		if opts.Workers == 1 || len(nodes) < parGrain {
			for _, id := range nodes {
				vals[id] = d.Transfer(int(id), get)
			}
			continue
		}
		// Distinct nodes write distinct slots and read only earlier
		// levels, so the fan-out is race-free and order-independent.
		par.ForEach(opts.Workers, len(nodes), func(i int) error {
			id := nodes[i]
			vals[id] = d.Transfer(int(id), get)
			return nil
		})
	}
	return vals
}

// Rerun incrementally re-solves a forward domain's fixpoint in place
// after the transfer results of the seed nodes changed (typically
// because the domain was reconfigured, e.g. Pair.SetKey selecting a
// different key input). vals must hold a fixpoint previously computed
// by Run or Rerun for the same program; on return it is the fixpoint of
// the reconfigured domain.
//
// The worklist is a dirty bitset over topological position, scanned
// forward one word at a time, lowest set bit first. Fanouts always sit
// at strictly larger positions than the node that marks them, so a bit
// behind the scan is never set again: a node is transferred only after
// every dirty fanin has settled, each visited node is transferred
// exactly once, and fanouts are marked through the CSR fanout arrays
// only when a value actually changed. The scan stops once no bit is
// pending. The returned slice lists the visited node IDs in processing
// (strictly increasing position) order; callers use it to scan exactly
// the dirty cone and to restore vals afterwards when iterating over
// many seeds.
func Rerun[V any](p *ir.Program, d Domain[V], vals []V, seeds ...int32) []int32 {
	dirty := make([]uint64, (p.NumNodes()+63)/64)
	pending := 0
	mark := func(id int32) {
		pos := p.Pos[id]
		if w, b := pos>>6, uint64(1)<<(pos&63); dirty[w]&b == 0 {
			dirty[w] |= b
			pending++
		}
	}
	for _, s := range seeds {
		mark(s)
	}
	get := func(id int) V { return vals[id] }
	var visited []int32
	for w := 0; pending > 0; w++ {
		for dirty[w] != 0 {
			b := bits.TrailingZeros64(dirty[w])
			dirty[w] &^= 1 << b
			pending--
			id := p.Order[w<<6|b]
			visited = append(visited, id)
			old := vals[id]
			next := d.Transfer(int(id), get)
			vals[id] = next
			if d.Equal(old, next) {
				continue
			}
			for _, fo := range p.FanoutSpan(int(id)) {
				mark(fo)
			}
		}
	}
	return visited
}
