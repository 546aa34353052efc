package dataflow

import "orap/internal/ir"

// Unreachable is the saturation ceiling of the SCOAP scores: a score at
// or above it means the condition cannot be established (a constant
// net's opposite value, an output with no path to a primary output).
// Saturating arithmetic keeps deep circuits from overflowing.
const Unreachable = int32(1) << 28

// satAdd adds two SCOAP scores, saturating at Unreachable.
func satAdd(a, b int32) int32 {
	s := a + b
	if s >= Unreachable || a >= Unreachable || b >= Unreachable {
		return Unreachable
	}
	return s
}

// ControlValue carries the SCOAP combinational controllabilities of one
// net: CC0/CC1 estimate how many circuit lines must be set to force the
// net to 0/1 (primary and key inputs cost 1, every gate adds 1).
type ControlValue struct {
	CC0, CC1 int32
}

// Controllability is the forward half of the SCOAP testability domain
// (Goldstein's classic difficulty estimate): inputs are directly
// controllable, AND-family gates sum the costs of their non-controlling
// values and take the cheapest controlling input, XOR gates fold parity
// combinations pairwise. High values mark nets random patterns almost
// never exercise — where SAT-resistant point functions hide.
type Controllability struct {
	p *ir.Program
}

// NewControllability returns the controllability domain for p.
func NewControllability(p *ir.Program) *Controllability {
	return &Controllability{p: p}
}

// Direction implements Domain.
func (d *Controllability) Direction() Direction { return Forward }

// Join implements Domain: the pessimistic (max) score per polarity.
func (d *Controllability) Join(a, b ControlValue) ControlValue {
	return ControlValue{CC0: max(a.CC0, b.CC0), CC1: max(a.CC1, b.CC1)}
}

// Equal implements Domain.
func (d *Controllability) Equal(a, b ControlValue) bool { return a == b }

// Transfer implements Domain.
func (d *Controllability) Transfer(id int, vals []ControlValue) ControlValue {
	p := d.p
	fi := p.FaninSpan(id)
	switch p.Ops[id] {
	case ir.OpInput:
		return ControlValue{CC0: 1, CC1: 1}
	case ir.OpConst0:
		return ControlValue{CC0: 0, CC1: Unreachable}
	case ir.OpConst1:
		return ControlValue{CC0: Unreachable, CC1: 0}
	case ir.OpBuf:
		v := vals[fi[0]]
		return ControlValue{CC0: satAdd(v.CC0, 1), CC1: satAdd(v.CC1, 1)}
	case ir.OpNot:
		v := vals[fi[0]]
		return ControlValue{CC0: satAdd(v.CC1, 1), CC1: satAdd(v.CC0, 1)}
	case ir.OpAnd, ir.OpNand:
		// Output 1 needs every input 1; output 0 needs the cheapest 0.
		one, zero := int32(0), Unreachable
		for _, f := range fi {
			v := vals[f]
			one = satAdd(one, v.CC1)
			zero = min(zero, v.CC0)
		}
		cc0, cc1 := satAdd(zero, 1), satAdd(one, 1)
		if p.Ops[id] == ir.OpNand {
			cc0, cc1 = cc1, cc0
		}
		return ControlValue{CC0: cc0, CC1: cc1}
	case ir.OpOr, ir.OpNor:
		zero, one := int32(0), Unreachable
		for _, f := range fi {
			v := vals[f]
			zero = satAdd(zero, v.CC0)
			one = min(one, v.CC1)
		}
		cc0, cc1 := satAdd(zero, 1), satAdd(one, 1)
		if p.Ops[id] == ir.OpNor {
			cc0, cc1 = cc1, cc0
		}
		return ControlValue{CC0: cc0, CC1: cc1}
	case ir.OpXor, ir.OpXnor:
		// Pairwise parity fold: the running pair (c0, c1) is the cost of
		// an even/odd parity over the fanins consumed so far.
		v := vals[fi[0]]
		c0, c1 := v.CC0, v.CC1
		for _, f := range fi[1:] {
			fv := vals[f]
			n0 := min(satAdd(c0, fv.CC0), satAdd(c1, fv.CC1))
			n1 := min(satAdd(c0, fv.CC1), satAdd(c1, fv.CC0))
			c0, c1 = n0, n1
		}
		cc0, cc1 := satAdd(c0, 1), satAdd(c1, 1)
		if p.Ops[id] == ir.OpXnor {
			cc0, cc1 = cc1, cc0
		}
		return ControlValue{CC0: cc0, CC1: cc1}
	}
	return ControlValue{CC0: Unreachable, CC1: Unreachable}
}

// Observability is the backward half of SCOAP: CO estimates how many
// lines must be set to propagate a net's value to a primary output
// (0 at the outputs themselves; each gate on the path adds 1 plus the
// cost of holding its side inputs at non-controlling values, read from
// a completed Controllability result). CO of Unreachable means no
// primary output can ever see the net.
type Observability struct {
	p    *ir.Program
	cc   []ControlValue
	isPO []bool
}

// NewObservability returns the observability domain for p, reading side
// -input costs from cc (a Controllability result for the same program).
func NewObservability(p *ir.Program, cc []ControlValue) *Observability {
	d := &Observability{p: p, cc: cc, isPO: make([]bool, p.NumNodes())}
	for _, o := range p.POs {
		d.isPO[o] = true
	}
	return d
}

// Direction implements Domain.
func (d *Observability) Direction() Direction { return Backward }

// Join implements Domain: the pessimistic (max) score.
func (d *Observability) Join(a, b int32) int32 { return max(a, b) }

// Equal implements Domain.
func (d *Observability) Equal(a, b int32) bool { return a == b }

// Transfer implements Domain.
func (d *Observability) Transfer(id int, vals []int32) int32 {
	p := d.p
	co := Unreachable
	if d.isPO[id] {
		co = 0
	}
	for _, fo := range p.FanoutSpan(id) {
		g := int(fo)
		cost := vals[g]
		switch p.Ops[g] {
		case ir.OpBuf, ir.OpNot:
			// No side inputs.
		case ir.OpAnd, ir.OpNand:
			for _, f := range p.FaninSpan(g) {
				if int(f) != id {
					cost = satAdd(cost, d.cc[f].CC1)
				}
			}
		case ir.OpOr, ir.OpNor:
			for _, f := range p.FaninSpan(g) {
				if int(f) != id {
					cost = satAdd(cost, d.cc[f].CC0)
				}
			}
		case ir.OpXor, ir.OpXnor:
			for _, f := range p.FaninSpan(g) {
				if int(f) != id {
					cost = satAdd(cost, min(d.cc[f].CC0, d.cc[f].CC1))
				}
			}
		default:
			cost = Unreachable
		}
		co = min(co, satAdd(cost, 1))
	}
	return co
}
