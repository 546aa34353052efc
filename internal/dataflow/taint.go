package dataflow

import (
	"math/bits"

	"orap/internal/ir"
)

// KeySet is a set of key-bit indices packed as a bit vector. The zero
// value is the empty set of any width; sets produced by one KeyTaint
// domain share a word width and may be compared with Equal.
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

// KeyTaint is the input-taint domain: the abstract value of a net is
// the set of tracked inputs with a structural path to it — the nets
// that carry values dependent on those inputs, an over-approximation
// of actual influence. Each tracked input seeds its own bit; gates
// union their fanins. Instantiated over the key inputs (NewKeyTaint) a
// primary output with a non-empty set is in some key bit's corruption
// cone; instantiated over every input (NewInputTaint with p.Inputs)
// the fixpoint is each net's full input support — which is how the
// audit's exact symbolic backend sizes a cone's BDD variable set
// before committing a node budget to it.
type KeyTaint struct {
	p     *ir.Program
	words int
	// bitOf maps a node ID to its tracked-input index, -1 for nodes
	// that seed nothing.
	bitOf []int32
}

// NewKeyTaint returns the taint domain tracking p's key inputs: set
// bit kb means key bit kb reaches the net.
func NewKeyTaint(p *ir.Program) *KeyTaint {
	return NewInputTaint(p, p.Keys)
}

// NewInputTaint returns the taint domain tracking an arbitrary input
// subset: set bit i means inputs[i] reaches the net. Passing p.Inputs
// tracks every input, so a solved value is the net's exact structural
// support (PI bits first, key bits after, mirroring the p.Inputs
// layout).
func NewInputTaint(p *ir.Program, inputs []int32) *KeyTaint {
	d := &KeyTaint{
		p:     p,
		words: (len(inputs) + 63) / 64,
		bitOf: make([]int32, p.NumNodes()),
	}
	for i := range d.bitOf {
		d.bitOf[i] = -1
	}
	for i, id := range inputs {
		d.bitOf[id] = int32(i)
	}
	return d
}

// Direction implements Domain.
func (d *KeyTaint) Direction() Direction { return Forward }

// Join implements Domain: set union.
func (d *KeyTaint) Join(a, b KeySet) KeySet {
	if len(a.w) == 0 {
		return b
	}
	if len(b.w) == 0 {
		return a
	}
	out := make([]uint64, d.words)
	copy(out, a.w)
	for i, w := range b.w {
		out[i] |= w
	}
	return KeySet{w: out}
}

// Equal implements Domain.
func (d *KeyTaint) Equal(a, b KeySet) bool {
	for i := 0; i < d.words; i++ {
		var aw, bw uint64
		if i < len(a.w) {
			aw = a.w[i]
		}
		if i < len(b.w) {
			bw = b.w[i]
		}
		if aw != bw {
			return false
		}
	}
	return true
}

// Transfer implements Domain.
func (d *KeyTaint) Transfer(id int, vals []KeySet) KeySet {
	switch d.p.Ops[id] {
	case ir.OpInput:
		if kb := d.bitOf[id]; kb >= 0 {
			w := make([]uint64, d.words)
			w[kb>>6] = 1 << (uint(kb) & 63)
			return KeySet{w: w}
		}
		return KeySet{}
	case ir.OpConst0, ir.OpConst1:
		return KeySet{}
	}
	out := KeySet{}
	for _, f := range d.p.FaninSpan(id) {
		out = d.Join(out, vals[f])
	}
	return out
}
