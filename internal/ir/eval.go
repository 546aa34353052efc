package ir

import "fmt"

// This file is the shared gate-evaluation kernel. Every engine that
// computes circuit values — the 64-way bit-parallel simulator, the
// single-pattern Eval behind the scan chip and attacks, and the fault
// simulator's faulty-value propagation — reduces to one of the three
// entry points here, so the gate semantics live in exactly one place.

// RunWords evaluates the given nodes, in the order listed, over the
// node-major value buffer vals, which holds `words` 64-pattern words per
// node (vals[id*words:(id+1)*words]). nodes must be topologically
// ordered, and every fanin of a listed node must either be listed
// earlier or already hold its words; p.Order evaluates the whole
// program. Input nodes in the list are skipped: their words are the
// caller's. The program is only read, so concurrent calls with distinct
// buffers are safe.
func (p *Program) RunWords(vals []uint64, words int, nodes []int32) {
	if words == 1 {
		// One word per node: direct scalar-word ops, skipping the
		// per-node subslice machinery that pays off only for wide blocks.
		// This is the fault simulator's good-value path.
		p.runWords1(vals, nodes)
		return
	}
	W := words
	for _, id32 := range nodes {
		id := int(id32)
		op := p.Ops[id]
		if op == OpInput {
			continue
		}
		dst := vals[id*W : id*W+W]
		fan := p.Fanins[p.FaninStart[id]:p.FaninStart[id+1]]
		switch {
		case op == OpConst0 || op == OpConst1:
			var w uint64
			if op == OpConst1 {
				w = ^uint64(0)
			}
			for i := range dst {
				dst[i] = w
			}
		case op == OpBuf:
			copy(dst, vals[int(fan[0])*W:int(fan[0])*W+W])
		case op == OpNot:
			a := vals[int(fan[0])*W : int(fan[0])*W+W][:len(dst)]
			for i := range dst {
				dst[i] = ^a[i]
			}
		case len(fan) == 2:
			// Fused two-input forms: one pass instead of copy+combine.
			a := vals[int(fan[0])*W : int(fan[0])*W+W][:len(dst)]
			b := vals[int(fan[1])*W : int(fan[1])*W+W][:len(dst)]
			switch op {
			case OpAnd:
				for i := range dst {
					dst[i] = a[i] & b[i]
				}
			case OpNand:
				for i := range dst {
					dst[i] = ^(a[i] & b[i])
				}
			case OpOr:
				for i := range dst {
					dst[i] = a[i] | b[i]
				}
			case OpNor:
				for i := range dst {
					dst[i] = ^(a[i] | b[i])
				}
			case OpXor:
				for i := range dst {
					dst[i] = a[i] ^ b[i]
				}
			case OpXnor:
				for i := range dst {
					dst[i] = ^(a[i] ^ b[i])
				}
			}
		case len(fan) == 3:
			// Fused three-input forms, the widest gates benchgen emits:
			// one pass instead of a copy, two combining passes and an
			// inversion pass.
			a := vals[int(fan[0])*W : int(fan[0])*W+W][:len(dst)]
			b := vals[int(fan[1])*W : int(fan[1])*W+W][:len(dst)]
			c := vals[int(fan[2])*W : int(fan[2])*W+W][:len(dst)]
			switch op {
			case OpAnd:
				for i := range dst {
					dst[i] = a[i] & b[i] & c[i]
				}
			case OpNand:
				for i := range dst {
					dst[i] = ^(a[i] & b[i] & c[i])
				}
			case OpOr:
				for i := range dst {
					dst[i] = a[i] | b[i] | c[i]
				}
			case OpNor:
				for i := range dst {
					dst[i] = ^(a[i] | b[i] | c[i])
				}
			case OpXor:
				for i := range dst {
					dst[i] = a[i] ^ b[i] ^ c[i]
				}
			case OpXnor:
				for i := range dst {
					dst[i] = ^(a[i] ^ b[i] ^ c[i])
				}
			}
		default:
			// Four or more fanins, which only parsed netlists carry.
			copy(dst, vals[int(fan[0])*W:int(fan[0])*W+W])
			for _, f := range fan[1:] {
				src := vals[int(f)*W : int(f)*W+W][:len(dst)]
				switch op {
				case OpAnd, OpNand:
					for i := range dst {
						dst[i] &= src[i]
					}
				case OpOr, OpNor:
					for i := range dst {
						dst[i] |= src[i]
					}
				case OpXor, OpXnor:
					for i := range dst {
						dst[i] ^= src[i]
					}
				}
			}
			if op == OpNand || op == OpNor || op == OpXnor {
				for i := range dst {
					dst[i] = ^dst[i]
				}
			}
		}
	}
}

// runWords1 is RunWords for the single-word layout (vals[id] is node id's
// only word).
func (p *Program) runWords1(vals []uint64, nodes []int32) {
	for _, id32 := range nodes {
		id := int(id32)
		op := p.Ops[id]
		if op == OpInput {
			continue
		}
		fan := p.Fanins[p.FaninStart[id]:p.FaninStart[id+1]]
		switch op {
		case OpConst0:
			vals[id] = 0
		case OpConst1:
			vals[id] = ^uint64(0)
		case OpBuf:
			vals[id] = vals[fan[0]]
		case OpNot:
			vals[id] = ^vals[fan[0]]
		case OpAnd, OpNand:
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v &= vals[f]
			}
			if op == OpNand {
				v = ^v
			}
			vals[id] = v
		case OpOr, OpNor:
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v |= vals[f]
			}
			if op == OpNor {
				v = ^v
			}
			vals[id] = v
		case OpXor, OpXnor:
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v ^= vals[f]
			}
			if op == OpXnor {
				v = ^v
			}
			vals[id] = v
		}
	}
}

// RunBools evaluates every non-input node over the per-node boolean
// buffer vals (len NumNodes). Input values must be set beforehand.
func (p *Program) RunBools(vals []bool) {
	for _, id32 := range p.Order {
		id := int(id32)
		op := p.Ops[id]
		if op == OpInput {
			continue
		}
		fan := p.Fanins[p.FaninStart[id]:p.FaninStart[id+1]]
		switch op {
		case OpConst0:
			vals[id] = false
		case OpConst1:
			vals[id] = true
		case OpBuf:
			vals[id] = vals[fan[0]]
		case OpNot:
			vals[id] = !vals[fan[0]]
		case OpAnd, OpNand:
			v := true
			for _, f := range fan {
				v = v && vals[f]
			}
			vals[id] = v != (op == OpNand)
		case OpOr, OpNor:
			v := false
			for _, f := range fan {
				v = v || vals[f]
			}
			vals[id] = v != (op == OpNor)
		case OpXor, OpXnor:
			v := false
			for _, f := range fan {
				v = v != vals[f]
			}
			vals[id] = v != (op == OpXnor)
		}
	}
}

// Eval evaluates one pattern given as primary-input and key bit slices
// and returns the primary-output bits in declaration order. It allocates
// a fresh value buffer per call and is therefore safe to call from any
// number of goroutines.
func (p *Program) Eval(pi, key []bool) ([]bool, error) {
	if len(pi) != len(p.PIs) {
		return nil, fmt.Errorf("ir: got %d primary input bits, program has %d", len(pi), len(p.PIs))
	}
	if len(key) != len(p.Keys) {
		return nil, fmt.Errorf("ir: got %d key bits, program has %d", len(key), len(p.Keys))
	}
	vals := make([]bool, p.NumNodes())
	for i, id := range p.PIs {
		vals[id] = pi[i]
	}
	for i, id := range p.Keys {
		vals[id] = key[i]
	}
	p.RunBools(vals)
	out := make([]bool, len(p.POs))
	for i, id := range p.POs {
		out[i] = vals[id]
	}
	return out, nil
}

// EvalWord computes one 64-pattern word for a gate of type op with n
// fanins whose words are supplied by pin(i). It is the single-word form
// of the kernel, used by the fault simulator to recompute a node under
// an injected fault. Input nodes are the caller's responsibility.
func EvalWord(op Op, n int, pin func(int) uint64) uint64 {
	switch op {
	case OpConst0:
		return 0
	case OpConst1:
		return ^uint64(0)
	case OpBuf:
		return pin(0)
	case OpNot:
		return ^pin(0)
	case OpAnd, OpNand:
		v := ^uint64(0)
		for i := 0; i < n; i++ {
			v &= pin(i)
		}
		if op == OpNand {
			v = ^v
		}
		return v
	case OpOr, OpNor:
		v := uint64(0)
		for i := 0; i < n; i++ {
			v |= pin(i)
		}
		if op == OpNor {
			v = ^v
		}
		return v
	case OpXor, OpXnor:
		v := uint64(0)
		for i := 0; i < n; i++ {
			v ^= pin(i)
		}
		if op == OpXnor {
			v = ^v
		}
		return v
	}
	return 0
}
