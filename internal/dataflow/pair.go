package dataflow

import "orap/internal/ir"

// Unknown is the top element of the ternary constant lattice
// {Unknown, 0, 1}: the node's value is not provably constant.
const Unknown = int8(-1)

// PairValue is the pair/key-difference abstract value of one node for
// one key bit: the ternary constant-propagation results under both
// values of the bit, tracked jointly. Tracking the pair matters:
// XOR(x, k) is Unknown under both values of k, yet its concrete value
// always differs between them — a naive two-pass diff would call it
// key-independent. It is one lane of a PairPlanes.
type PairValue struct {
	// V0 and V1 are the ternary results under key = 0 and key = 1.
	V0, V1 int8
	// Eq is a proof of key-independence:
	//
	//	Eq[n] = (both values known and equal) ∨ (every fanin of n is Eq)
	//
	// Eq is sound — Eq[n] implies n's concrete value cannot depend on
	// the key bit for any assignment of the unknown inputs — and by
	// induction it also implies the two lattice values coincide.
	Eq bool
	// Anti is the opposite certainty: n's concrete value provably
	// differs between the two key values, for every assignment of the
	// unknown inputs (the node computes f(x) XOR k up to inversion).
	// It propagates through Buf/Not and through XOR/XNOR gates whose
	// remaining fanins are all Eq; AND/OR families destroy it, which is
	// exactly why a PO that keeps Anti is a one-query key leak.
	Anti bool
}

// PairPlanes is the pair value of one node for up to 64 key bits,
// bit-sliced: bit j of every plane is lane j, the PairValue of the
// domain's keys[j]. A ternary value takes two planes, known-0 and
// known-1; a lane set in neither is Unknown.
type PairPlanes struct {
	V0Is0, V0Is1 uint64
	V1Is0, V1Is1 uint64
	Eq, Anti     uint64
}

// Lane returns lane j as a PairValue.
func (v PairPlanes) Lane(j int) PairValue {
	return PairValue{
		V0:   laneTern(v.V0Is0, v.V0Is1, j),
		V1:   laneTern(v.V1Is0, v.V1Is1, j),
		Eq:   v.Eq>>j&1 != 0,
		Anti: v.Anti>>j&1 != 0,
	}
}

func laneTern(is0, is1 uint64, j int) int8 {
	switch {
	case is0>>j&1 != 0:
		return 0
	case is1>>j&1 != 0:
		return 1
	}
	return Unknown
}

// negate complements both ternary values.
func (v *PairPlanes) negate() {
	v.V0Is0, v.V0Is1, v.V1Is0, v.V1Is1 = v.V0Is1, v.V0Is0, v.V1Is1, v.V1Is0
}

// Pair is the pair/key-difference domain behind audit's key-removable
// and key-leak rules. Lane j tracks keys[j] under both of its values
// with every other input Unknown-but-Eq, exactly as if keys[j] were the
// only key bit analysed; one Run solves 64 key bits. Lanes past
// len(keys) track no key and hold Eq everywhere; their V0 (= V1) is
// plain ternary constant propagation, behind check's const-out rule.
// Constants seed known values, the AND/OR families fold through
// absorbing inputs, and the degenerate two-input XOR/XNOR of one
// signal against itself folds regardless of the signal's value.
type Pair struct {
	p    *ir.Program
	keys []int32
}

// NewPair returns the pair domain for p tracking the given key input
// nodes, at most 64 of them.
func NewPair(p *ir.Program, keys []int32) *Pair {
	if len(keys) > 64 {
		panic("dataflow: NewPair tracks at most 64 key inputs")
	}
	return &Pair{p: p, keys: keys}
}

// Direction implements Domain.
func (d *Pair) Direction() Direction { return Forward }

// Join implements Domain: values join in the ternary lattice, the Eq
// and Anti proofs survive only when both sides carry them.
func (d *Pair) Join(a, b PairPlanes) PairPlanes {
	return PairPlanes{
		V0Is0: a.V0Is0 & b.V0Is0, V0Is1: a.V0Is1 & b.V0Is1,
		V1Is0: a.V1Is0 & b.V1Is0, V1Is1: a.V1Is1 & b.V1Is1,
		Eq: a.Eq & b.Eq, Anti: a.Anti & b.Anti,
	}
}

// Equal implements Domain.
func (d *Pair) Equal(a, b PairPlanes) bool { return a == b }

// Transfer implements Domain, for all lanes in one pass over the
// fanins. A lane whose two values are both known takes its proofs from
// them; otherwise it is Eq when every fanin is Eq, and Anti when the
// gate passes a flip through: inverters do, an XOR/XNOR does when an
// odd number of fanins flip and every other fanin is Eq, the AND/OR
// families never do.
func (d *Pair) Transfer(id int, vals []PairPlanes) PairPlanes {
	const all = ^uint64(0)
	op := d.p.Ops[id]
	switch op {
	case ir.OpInput:
		var key uint64
		for j, k := range d.keys {
			if int(k) == id {
				key = 1 << j
			}
		}
		return PairPlanes{V0Is0: key, V1Is1: key, Eq: ^key, Anti: key}
	case ir.OpConst0:
		return PairPlanes{V0Is0: all, V1Is0: all, Eq: all}
	case ir.OpConst1:
		return PairPlanes{V0Is1: all, V1Is1: all, Eq: all}
	}
	fi := d.p.FaninSpan(id)
	var v PairPlanes
	// eq: every fanin is Eq; anti: the gate passes a flip through.
	eq, anti := all, uint64(0)
	switch op {
	case ir.OpBuf, ir.OpNot:
		v = vals[fi[0]]
		eq, anti = v.Eq, v.Anti
		if op == ir.OpNot {
			v.negate()
		}
	case ir.OpAnd, ir.OpNand, ir.OpOr, ir.OpNor:
		// AND is 0 where some fanin is 0 and 1 where all are 1; the OR
		// family folds the same way with 0 and 1 exchanged.
		or := op == ir.OpOr || op == ir.OpNor
		var some0, some1 uint64
		every0, every1 := all, all
		for _, f := range fi {
			fv := vals[f]
			if or {
				fv.negate()
			}
			some0, every0 = some0|fv.V0Is0, every0&fv.V0Is1
			some1, every1 = some1|fv.V1Is0, every1&fv.V1Is1
			eq &= fv.Eq
		}
		v = PairPlanes{V0Is0: some0, V0Is1: every0, V1Is0: some1, V1Is1: every1}
		if or != (op == ir.OpNand || op == ir.OpNor) {
			v.negate()
		}
	case ir.OpXor, ir.OpXnor:
		if len(fi) == 2 && fi[0] == fi[1] {
			// Degenerate shape: x XOR x is 0 whatever x is.
			v = PairPlanes{V0Is0: all, V1Is0: all}
		} else {
			// The parity is known where every fanin is known.
			known0, known1, proofs := all, all, all
			var par0, par1 uint64
			for _, f := range fi {
				fv := &vals[f]
				known0, par0 = known0&(fv.V0Is0|fv.V0Is1), par0^fv.V0Is1
				known1, par1 = known1&(fv.V1Is0|fv.V1Is1), par1^fv.V1Is1
				eq, anti, proofs = eq&fv.Eq, anti^fv.Anti, proofs&(fv.Eq|fv.Anti)
			}
			v = PairPlanes{V0Is0: known0 &^ par0, V0Is1: known0 & par0, V1Is0: known1 &^ par1, V1Is1: known1 & par1}
			anti &= proofs
		}
		if op == ir.OpXnor {
			v.negate()
		}
	}
	known := (v.V0Is0 | v.V0Is1) & (v.V1Is0 | v.V1Is1)
	same := v.V0Is0&v.V1Is0 | v.V0Is1&v.V1Is1
	v.Eq = known&same | ^known&eq
	v.Anti = known&^same | ^known&^eq&anti
	return v
}
