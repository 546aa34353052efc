package audit

import (
	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// The fingerprint analysis classifies each key bit by the local
// structure of the gates its input directly feeds — the view a
// topology-guided attacker has of a reverse-engineered netlist. Three
// signatures cover the shipped locking schemes:
//
//   - xor-direct: every direct fanout is a 2-input XOR/XNOR against an
//     internal net. The EPIC/random-XOR splice: removing the gate (and
//     absorbing the inversion for XNOR) recovers the original net, so
//     locating it is breaking it.
//   - pointfunc: a 2-input XOR/XNOR comparator against a primary
//     input. The SARLock/Anti-SAT/TTLock lineage: the comparator tree
//     is a point function an attacker bypasses once located.
//   - ctrl-cone: NOT/AND/NAND/OR/NOR gates computing over key material
//     only — the weighted-locking control cone. The least distinctive
//     shape (several key bits mix before touching the circuit), so it
//     only rates an info note.
//
// Every finding carries its anonymity set: how many gates in the whole
// circuit share the key gate's shape (opcode up to output inversion,
// same arity). A small set means the attacker needs to test almost
// nothing to confirm the identification.

// fingerprints emits the key-fingerprint findings.
func fingerprints(p *ir.Program, c *netlist.Circuit, rep *Report) {
	shapes := shapeCounts(p)
	total := 0
	for _, n := range shapes {
		total += n
	}

	isKeyInput := make([]bool, p.NumNodes())
	for _, k := range p.Keys {
		isKeyInput[k] = true
	}
	keyOnly := p.KeyOnly()

	for kb, kid := range p.Keys {
		fos := uniqueFanouts(p, int(kid))
		if len(fos) == 0 {
			continue // dead key material; removability reports it
		}
		allXor, allCtrl := true, false
		pointfuncAt, pointfuncPI := -1, -1
		ctrl := 0
		for _, fo := range fos {
			op := p.Ops[fo]
			fi := p.FaninSpan(fo)
			switch op {
			case ir.OpXor, ir.OpXnor:
				if len(fi) == 2 {
					other := int(fi[0])
					if other == int(kid) {
						other = int(fi[1])
					}
					if p.Ops[other] == ir.OpInput && !isKeyInput[other] {
						if pointfuncAt < 0 {
							pointfuncAt, pointfuncPI = fo, other
						}
						continue
					}
					continue // xor-direct candidate
				}
				allXor = false
			case ir.OpNot, ir.OpAnd, ir.OpNand, ir.OpOr, ir.OpNor:
				allXor = false
				if keyOnly[fo] {
					ctrl++
				}
			default:
				allXor = false
			}
		}
		allCtrl = ctrl == len(fos)

		switch {
		case pointfuncAt >= 0:
			rep.Add(c, RuleKeyFingerprint, check.Warning, kb, pointfuncAt, RefTopology,
				"key input %q feeds a %v comparator against primary input %q (point-function shape, SARLock/Anti-SAT/TTLock lineage); the unit is bypassable once located — anonymity set: %d of %d gates share its shape",
				c.NameOf(int(kid)), p.Ops[pointfuncAt], c.NameOf(pointfuncPI),
				shapes[shapeOf(p, pointfuncAt)], total)
		case allXor:
			g := fos[0]
			rep.Add(c, RuleKeyFingerprint, check.Warning, kb, g, RefTopology,
				"key input %q splices %d %v key gate(s) directly into the netlist (EPIC-style); topology-guided attacks locate and strip it — anonymity set: %d of %d gates share its shape",
				c.NameOf(int(kid)), len(fos), p.Ops[g], shapes[shapeOf(p, g)], total)
		case allCtrl:
			g := fos[0]
			rep.Add(c, RuleKeyFingerprint, check.Info, kb, g, RefTopology,
				"key input %q enters a weighted-locking control cone (%v over key material only); diffuse fingerprint — anonymity set: %d of %d gates share the entry gate's shape",
				c.NameOf(int(kid)), p.Ops[g], shapes[shapeOf(p, g)], total)
		}
	}
}

// shape is a local-structure signature: the gate opcode with the output
// inversion absorbed (XNOR folds to XOR, NAND to AND, NOR to OR — a
// resynthesizing attacker pushes inverters for free) plus the arity.
type shape struct {
	op    ir.Op
	arity int
}

func shapeOf(p *ir.Program, id int) shape {
	op := p.Ops[id]
	switch op {
	case ir.OpXnor:
		op = ir.OpXor
	case ir.OpNand:
		op = ir.OpAnd
	case ir.OpNor:
		op = ir.OpOr
	case ir.OpNot:
		op = ir.OpBuf
	}
	return shape{op: op, arity: len(p.FaninSpan(id))}
}

// shapeCounts tallies every gate's shape (inputs and constants
// excluded).
func shapeCounts(p *ir.Program) map[shape]int {
	out := make(map[shape]int)
	for id := range p.Ops {
		switch p.Ops[id] {
		case ir.OpInput, ir.OpConst0, ir.OpConst1:
			continue
		}
		out[shapeOf(p, id)]++
	}
	return out
}

// uniqueFanouts returns the distinct direct fanout gates of id.
func uniqueFanouts(p *ir.Program, id int) []int {
	span := p.FanoutSpan(id)
	out := make([]int, 0, len(span))
	seen := make(map[int32]bool, len(span))
	for _, fo := range span {
		if !seen[fo] {
			seen[fo] = true
			out = append(out, int(fo))
		}
	}
	return out
}
