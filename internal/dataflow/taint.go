package dataflow

import (
	"math/bits"

	"orap/internal/ir"
)

// KeySet is a set of key-bit indices packed as a bit vector. The zero
// value is the empty set of any width; the non-empty sets of one
// analysis share a word width.
type KeySet struct {
	w []uint64
}

// Has reports whether key bit kb is in the set.
func (s KeySet) Has(kb int) bool {
	word := kb >> 6
	if word >= len(s.w) {
		return false
	}
	return s.w[word]>>(uint(kb)&63)&1 != 0
}

// Count returns the number of key bits in the set.
func (s KeySet) Count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set holds no key bits.
func (s KeySet) Empty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bits returns the key-bit indices in the set, in increasing order.
func (s KeySet) Bits() []int {
	var out []int
	for wi, w := range s.w {
		for ; w != 0; w &= w - 1 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

// KeyTaint solves the input-taint analysis over p's key inputs: set
// bit kb of a node's set means key bit kb reaches the net, so a primary
// output with a non-empty set is in some key bit's corruption cone.
func KeyTaint(p *ir.Program) []KeySet {
	return InputTaint(p, p.Keys)
}

// InputTaint solves the input-taint analysis over an arbitrary input
// subset and returns each node's set, indexed by node ID: set bit i
// means inputs[i] has a structural path to the net, so the net carries
// values dependent on it (an over-approximation of actual influence).
// Each tracked input seeds its own bit; gates union their fanins.
// Passing p.Inputs tracks every input, so a set is the net's exact
// structural support (PI bits first, key bits after, mirroring the
// p.Inputs layout) — which is how the audit's exact symbolic backend
// sizes a cone's BDD variable set before committing a node budget to
// it.
func InputTaint(p *ir.Program, inputs []int32) []KeySet {
	words := (len(inputs) + 63) / 64
	// bitOf maps a node ID to its tracked-input index, -1 for nodes
	// that seed nothing.
	bitOf := make([]int32, p.NumNodes())
	for i := range bitOf {
		bitOf[i] = -1
	}
	for i, id := range inputs {
		bitOf[id] = int32(i)
	}
	vals := make([]KeySet, p.NumNodes())
	for _, id := range p.Order {
		vals[id] = taintTransfer(p, bitOf, words, int(id), vals)
	}
	return vals
}

// union is the taint sets' join. It shares an operand when the other
// is empty, so a node's set may alias a fanin's.
func union(words int, a, b KeySet) KeySet {
	if len(a.w) == 0 {
		return b
	}
	if len(b.w) == 0 {
		return a
	}
	out := make([]uint64, words)
	copy(out, a.w)
	for i, w := range b.w {
		out[i] |= w
	}
	return KeySet{w: out}
}

// taintTransfer computes node id's set from its fanins' entries in
// vals.
func taintTransfer(p *ir.Program, bitOf []int32, words, id int, vals []KeySet) KeySet {
	switch p.Ops[id] {
	case ir.OpInput:
		if kb := bitOf[id]; kb >= 0 {
			w := make([]uint64, words)
			w[kb>>6] = 1 << (uint(kb) & 63)
			return KeySet{w: w}
		}
		return KeySet{}
	case ir.OpConst0, ir.OpConst1:
		return KeySet{}
	}
	out := KeySet{}
	for _, f := range p.FaninSpan(id) {
		out = union(words, out, vals[f])
	}
	return out
}
