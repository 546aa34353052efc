package audit

import (
	"math/bits"

	"orap/internal/check"
	"orap/internal/dataflow"
	"orap/internal/netlist"
)

// The removability analysis runs dataflow.Pair, the pair/key-difference
// analysis: constant propagation under both values of one key bit, all
// other inputs unknown, tracked jointly (see dataflow.PairValue for why
// a naive two-pass diff is unsound). A key bit with the Eq proof at
// every primary output is provably inert; a gate that is constant under
// both key values while a non-Eq signal feeds it absorbs the key
// dependence — both are exactly what a resynthesis pass deletes.
//
// Pair is bit-sliced, so one call solves 64 key bits and the findings
// are read lane by lane; Report.Sort puts them in canonical order
// afterwards. Along the way the pass also harvests the Anti
// proofs at the primary outputs — the key-leak rule's evidence — so the
// leak scan costs nothing extra.

// removability emits the key-removable findings and returns, per key
// bit, whether the bit is inert (no primary output depends on it). The
// Anti-at-PO witnesses are stored on the engine for keyLeaks.
func removability(e *engine, c *netlist.Circuit, rep *Report) []bool {
	p := e.p
	inert := make([]bool, p.NumKeys())
	e.leaks = make([][]int32, p.NumKeys())
	for lo := 0; lo < p.NumKeys(); lo += 64 {
		keys := p.Keys[lo:min(lo+64, p.NumKeys())]
		vals := dataflow.Pair(p, keys)
		for id := range vals {
			v := &vals[id]
			// Constant under both key values: where a key-dependent
			// signal feeds this gate, the dependence dies here.
			constant := v.Eq & (v.V0Is0 | v.V0Is1)
			if constant == 0 {
				continue
			}
			var fed uint64
			for _, f := range p.FaninSpan(id) {
				fed |= ^vals[f].Eq
			}
			for m := constant & fed; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				kb := lo + j
				rep.Add(c, RuleKeyRemovable, check.Warning, kb, id, RefResynthesis,
					"%v gate %q is constant %d under both values of key bit %d (%q); the key dependence entering it is absorbed and resynthesis strips the key logic",
					p.Ops[id], c.NameOf(id), v.Lane(j).V0, kb, c.NameOf(int(keys[j])))
			}
		}

		var depends uint64
		for _, o := range p.POs {
			depends |= ^vals[o].Eq
			for m := vals[o].Anti; m != 0; m &= m - 1 {
				kb := lo + bits.TrailingZeros64(m)
				e.leaks[kb] = append(e.leaks[kb], o)
			}
		}
		for m := ^depends & (^uint64(0) >> (64 - len(keys))); m != 0; m &= m - 1 {
			kb := lo + bits.TrailingZeros64(m)
			kid := p.Keys[kb]
			inert[kb] = true
			if len(p.FanoutSpan(int(kid))) == 0 {
				// Scheme artifact (weighted locking's remainder bits):
				// dead key material, same policy as check's key-unobservable
				// warning tier.
				rep.Add(c, RuleKeyRemovable, check.Warning, kb, int(kid), RefResynthesis,
					"key input %q (bit %d) drives no gate; dead key material a resynthesis pass drops", c.NameOf(int(kid)), kb)
			} else {
				rep.Add(c, RuleKeyRemovable, check.Error, kb, int(kid), RefResynthesis,
					"no primary output depends on key bit %d (%q) under two-valued constant propagation; its key logic is removable", kb, c.NameOf(int(kid)))
			}
		}
	}
	return inert
}
