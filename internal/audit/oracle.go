package audit

import (
	"orap/internal/check"
	"orap/internal/gf2"
	"orap/internal/lfsr"
	"orap/internal/scan"
)

// Oracle audits the oracle path of a chip configuration statically:
// protection level, effective key entropy of the reseeding schedule,
// the stored key sequence, response-tap hygiene and — when a scan
// layout is supplied (nil skips the placement rules) — the Section III
// placement countermeasure. The returned error reports an invalid
// configuration, not audit findings; those are in the report, and the
// report's NominalEntropy/EffectiveEntropy fields carry the LFSR width
// and the transfer-matrix rank for protected configurations.
func Oracle(cfg scan.Config, lay *scan.Layout) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Report: check.Report{Circuit: cfg.Core.Name}}
	if cfg.Protection == scan.None {
		rep.Add(nil, RuleOracleUnprotected, check.Error, -1, -1, RefOraP,
			"conventional scan configuration: the key register survives test mode, so scan in - capture - scan out observes the unlocked core and the whole oracle-guided attack class applies")
		return rep, nil
	}

	n := cfg.LFSR.N
	rep.NominalEntropy = n
	m, err := lfsr.MemTransferMatrix(cfg.LFSR, cfg.Schedule, cfg.MemInject)
	if err != nil {
		return nil, err
	}
	rank := m.Rank()
	rep.EffectiveEntropy = rank
	if rank < n {
		rep.Add(nil, RuleKeyEntropy, check.Error, -1, -1, RefOraP,
			"memory-seed transfer matrix has GF(2) rank %d < %d: only 2^%d of the 2^%d key-register states are reachable from tamper-proof memory, and the scenario-(d) symbolic attack searches the smaller space", rank, n, rank, n)
	}

	if cfg.Protection == scan.OraPBasic && len(cfg.Seeds) > 0 {
		// The final register state of the basic scheme is a pure linear
		// image of the stored seeds; all-zero would equal the cleared
		// register and void the protection.
		w := len(cfg.MemInject)
		stacked := gf2.NewVec(w * len(cfg.Seeds))
		for i, s := range cfg.Seeds {
			for j := 0; j < w; j++ {
				if s.Bit(j) {
					stacked.SetBit(i*w+j, true)
				}
			}
		}
		if m.MulVec(stacked).Weight() == 0 {
			rep.Add(nil, RuleZeroKey, check.Error, -1, -1, RefOraP,
				"the stored key sequence unlocks to the all-zero key register — indistinguishable from the cleared state, so the chip answers correctly in test mode and the protection is void")
		}
	}

	if cfg.Protection == scan.OraPModified {
		byTap := map[int][]int{}
		for i, t := range cfg.RespTaps {
			byTap[t] = append(byTap[t], cfg.RespInject[i])
		}
		for _, t := range sortedKeys(byTap) {
			if pts := byTap[t]; len(pts) > 1 {
				rep.Add(nil, RuleRespTaps, check.Warning, -1, -1, RefOraP,
					"response reseeding points %v all tap flip-flop %d; correlated injections shrink the space a scenario-(e) attacker must search", pts, t)
			}
		}
	}

	if lay != nil {
		if err := lay.Validate(n, cfg.NumFFs()); err != nil {
			return nil, err
		}
		layoutRules(lay, n, rep)
	}
	return rep, nil
}

// layoutRules checks the Section III placement countermeasure: key
// cells interleaved with normal flip-flops, so the scenario-(b) bypass
// Trojan pays one multiplexer per key cell rather than one per run.
func layoutRules(lay *scan.Layout, keyCells int, rep *Report) {
	muxes := lay.BypassMuxCount()
	if muxes >= keyCells {
		return
	}
	maxRun := 0
	for _, r := range lay.KeyRunLengths() {
		if r > maxRun {
			maxRun = r
		}
	}
	rep.Add(nil, RuleScanLayout, check.Warning, -1, -1, RefOraP,
		"scan layout bunches key cells (longest run %d): a scenario-(b) bypass Trojan splices them out with %d multiplexers; full interleaving forces %d", maxRun, muxes, keyCells)
}

// sortedKeys returns the map's keys in increasing order, for
// deterministic finding order.
func sortedKeys(m map[int][]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
