package dataflow

import "orap/internal/ir"

// Unknown is the top element of the ternary constant lattice
// {Unknown, 0, 1}: the node's value is not provably constant.
const Unknown = int8(-1)

// Const is the ternary constant-propagation domain. Const0/Const1
// nodes seed known values, the AND/OR families fold through absorbing
// inputs, and the degenerate two-input XOR/XNOR of one signal against
// itself folds regardless of the signal's value. A non-Unknown result
// proves the gate's output stuck at that constant for every input
// assignment — the fact behind check's const-out rule.
type Const struct {
	p *ir.Program
}

// NewConst returns the constant domain for p.
func NewConst(p *ir.Program) *Const { return &Const{p: p} }

// Direction implements Domain.
func (d *Const) Direction() Direction { return Forward }

// Join implements Domain: equal values join to themselves, anything
// else to Unknown.
func (d *Const) Join(a, b int8) int8 {
	if a == b {
		return a
	}
	return Unknown
}

// Equal implements Domain.
func (d *Const) Equal(a, b int8) bool { return a == b }

// Transfer implements Domain.
func (d *Const) Transfer(id int, vals []int8) int8 {
	switch d.p.Ops[id] {
	case ir.OpInput:
		return Unknown
	case ir.OpConst0:
		return 0
	case ir.OpConst1:
		return 1
	}
	return foldOp(d.p.Ops[id], d.p.FaninSpan(id), vals)
}

// foldOp evaluates one gate over the ternary lattice, including the
// degenerate XOR(x, x)/XNOR(x, x) shapes that fold without knowing x.
// Pair's transfer is the same fold on 64 lanes at once.
func foldOp(op ir.Op, fanins []int32, vals []int8) int8 {
	switch op {
	case ir.OpBuf:
		return vals[fanins[0]]
	case ir.OpNot:
		if v := vals[fanins[0]]; v != Unknown {
			return 1 - v
		}
		return Unknown
	case ir.OpAnd, ir.OpNand:
		out := int8(1)
		for _, f := range fanins {
			switch vals[f] {
			case 0:
				out = 0
			case Unknown:
				if out != 0 {
					out = Unknown
				}
			}
		}
		if out == Unknown {
			return Unknown
		}
		if op == ir.OpNand {
			return 1 - out
		}
		return out
	case ir.OpOr, ir.OpNor:
		out := int8(0)
		for _, f := range fanins {
			switch vals[f] {
			case 1:
				out = 1
			case Unknown:
				if out != 1 {
					out = Unknown
				}
			}
		}
		if out == Unknown {
			return Unknown
		}
		if op == ir.OpNor {
			return 1 - out
		}
		return out
	case ir.OpXor, ir.OpXnor:
		// Degenerate shape: x XOR x is 0 (x XNOR x is 1) whatever x is.
		if len(fanins) == 2 && fanins[0] == fanins[1] {
			if op == ir.OpXor {
				return 0
			}
			return 1
		}
		parity := int8(0)
		for _, f := range fanins {
			v := vals[f]
			if v == Unknown {
				return Unknown
			}
			parity ^= v
		}
		if op == ir.OpXnor {
			return 1 - parity
		}
		return parity
	}
	return Unknown
}
