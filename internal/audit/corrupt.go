package audit

import (
	"orap/internal/check"
	"orap/internal/netlist"
)

// The corruptibility bound is structural: the primary outputs inside a
// key bit's transitive fanout cone are the only ones a wrong guess at
// that bit can ever corrupt. A cone covering almost nothing is the
// SARLock/Anti-SAT situation the paper criticizes — one output flips on
// one input pattern — and exactly what approximate attacks (AppSAT,
// Double DIP) exploit: a key that is wrong only in low-corruptibility
// bits passes random testing. The bound is an over-approximation
// (cone membership does not guarantee sensitization), so it flags
// "provably at most", never "exactly".

// corruptibility emits the low-corruptibility findings. Key bits the
// removability pass already proved inert are skipped — a removable bit
// corrupts nothing, and the removability finding is the sharper one.
// PO coverage is read off the engine's key-taint fixpoint: a primary
// output carries key bit kb's taint exactly when it lies in kb's
// transitive fanout cone, so one taint pass replaces the per-bit cone
// walks. When the exact backend ran (ex non-nil) and the bit stayed
// within budget, the cone bound is replaced by the exact count of
// outputs some (input, key) pair really flips, and the finding carries
// the model-counted corruption rate; budget-fallback bits keep the
// structural message.
func corruptibility(e *engine, c *netlist.Circuit, rep *Report, opts Options, inert []bool, ex *ExactResult) {
	p := e.p
	nPO := p.NumOutputs()
	thr := opts.MinCorruptPOs
	if thr <= 0 {
		// Default: flag a key bit confined to a single output of a
		// multi-output circuit; never flag single-output circuits.
		thr = 2
		if nPO < thr {
			thr = nPO
		}
	}
	for kb, kid := range p.Keys {
		if inert[kb] {
			continue
		}
		covered := 0
		for _, o := range p.POs {
			if e.taint[o].Has(kb) {
				covered++
			}
		}
		if ex != nil && ex.Bits[kb].OK {
			b := &ex.Bits[kb]
			if b.SensPOs >= thr {
				continue
			}
			rep.Add(c, RuleLowCorruptibility, check.Warning, kb, int(kid), RefOraP,
				"key bit %d (%q) corrupts exactly %d of %d primary outputs (structural cone bound %d, threshold %d); a wrong guess flips some output for %.3g%% of (input, key) pairs — low output corruptibility is what approximate attacks exploit",
				kb, c.NameOf(int(kid)), b.SensPOs, nPO, covered, thr, 100*b.Rate)
			continue
		}
		if covered >= thr {
			continue
		}
		rep.Add(c, RuleLowCorruptibility, check.Warning, kb, int(kid), RefOraP,
			"key bit %d (%q) can corrupt at most %d of %d primary outputs (threshold %d); low output corruptibility is what approximate attacks exploit",
			kb, c.NameOf(int(kid)), covered, nPO, thr)
	}
}
