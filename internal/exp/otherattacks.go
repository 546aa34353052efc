package exp

import (
	"fmt"

	"orap/internal/attack"
	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
	"orap/internal/sim"
)

// OtherAttackRow is one line of the "remaining attacks" study covering the
// paper's Section II-A claims about bypass, SPS and removal: which defense
// each attack applies to, and whether OraP starves it.
type OtherAttackRow struct {
	Attack  string
	Defense string
	Oracle  string
	// Applies reports whether the attack's own applicability criterion
	// held (a skewed wire found, the patch budget sufficed, …).
	Applies bool
	// DesignRecovered reports whether the attacker ends with a circuit
	// functionally equivalent to the original.
	DesignRecovered bool
	Note            string
}

// OtherAttacks runs the bypass and SPS/removal attacks across defenses
// and oracle modes on a small generated circuit.
func OtherAttacks(seed uint64) ([]OtherAttackRow, error) {
	prof, err := benchgen.ProfileByName("b22")
	if err != nil {
		return nil, err
	}
	scaled := prof.Scale(0.004)
	design, err := benchgen.Generate(scaled, seed)
	if err != nil {
		return nil, err
	}

	var rows []OtherAttackRow

	// --- Bypass vs SARLock, unprotected then OraP. ---
	sar, err := lock.SARLock(design, 6, rng.NewNamed(seed, "other/sar"))
	if err != nil {
		return nil, err
	}
	ensureNonZeroKey(sar)
	for _, prot := range []scan.Protection{scan.None, scan.OraPBasic} {
		o, err := chipOracle(sar, scaled, prot, seed)
		if err != nil {
			return nil, err
		}
		chosen := append([]bool(nil), sar.Key...)
		chosen[0] = !chosen[0]
		row := OtherAttackRow{Attack: "bypass", Defense: "sarlock", Oracle: prot.String()}
		res, err := attack.Bypass(sar.Circuit, o, chosen, attack.BypassOptions{MaxPatches: 256})
		if err != nil {
			row.Note = "patch budget exhausted"
		} else {
			row.Applies = true
			row.DesignRecovered = patchedMatches(design, sar, res, seed)
		}
		rows = append(rows, row)
	}

	// --- Bypass vs weighted locking: not applicable (too much corruption). ---
	wll, err := lock.Weighted(design, lock.WeightedOptions{KeyBits: 12, ControlWidth: 3, KeyGates: 12, Rand: rng.NewNamed(seed, "other/wll")})
	if err != nil {
		return nil, err
	}
	oWll, err := chipOracle(wll, scaled, scan.None, seed)
	if err != nil {
		return nil, err
	}
	rowW := OtherAttackRow{Attack: "bypass", Defense: "weighted", Oracle: "none"}
	if _, err := attack.Bypass(wll.Circuit, oWll, make([]bool, 12), attack.BypassOptions{MaxPatches: 64}); err != nil {
		rowW.Note = "patch budget exhausted (high corruption)"
	} else {
		rowW.Applies = true
	}
	rows = append(rows, rowW)

	// --- SPS (oracle-less) vs Anti-SAT and vs weighted locking. ---
	anti, err := lock.AntiSAT(design, 6, rng.NewNamed(seed, "other/anti"))
	if err != nil {
		return nil, err
	}
	spsAnti, err := attack.SPS(anti.Circuit, attack.SPSOptions{Rand: rng.NewNamed(seed, "other/sps1")})
	if err != nil {
		return nil, err
	}
	rowA := OtherAttackRow{Attack: "sps+removal", Defense: "antisat", Oracle: "(oracle-less)"}
	if spsAnti.Candidate >= 0 {
		rowA.Applies = true
		if cut, _, ok := attack.SPSCutKeyDead(anti.Circuit, spsAnti); ok {
			recovered, err := attack.VerifyKey(cut, design, make([]bool, cut.NumKeys()))
			if err != nil {
				return nil, err
			}
			rowA.DesignRecovered = recovered
		} else {
			rowA.Note = "no cut kills the key dependence"
		}
	} else {
		rowA.Note = "no skewed key-fed wire"
	}
	rows = append(rows, rowA)

	spsWll, err := attack.SPS(wll.Circuit, attack.SPSOptions{Rand: rng.NewNamed(seed, "other/sps2")})
	if err != nil {
		return nil, err
	}
	// Random logic naturally contains skewed nodes inside the key cone;
	// the attack only *applies* when some cut kills the key dependence,
	// which weighted locking's distributed key gates never allow.
	_, _, cutOK := attack.SPSCutKeyDead(wll.Circuit, spsWll)
	rows = append(rows, OtherAttackRow{
		Attack:  "sps+removal",
		Defense: "weighted",
		Oracle:  "(oracle-less)",
		Applies: cutOK,
		Note:    "no cut kills the key dependence",
	})
	return rows, nil
}

// patchedMatches samples whether the bypass-patched design equals the
// original function. The comparison is word-parallel: one run of the
// locked circuit under the correct key (the reference function) and one
// under the attacker's chosen key cover all trials; patched input
// patterns are then checked against the patch table per lane.
func patchedMatches(design interface {
	NumInputs() int
}, l *lock.Locked, res *attack.BypassResult, seed uint64) bool {
	const trials = 256
	r := rng.NewNamed(seed, "other/verify")
	prog, err := ir.Compile(l.Circuit)
	if err != nil {
		return false
	}
	p, err := sim.ForProgram(prog, trials/64)
	if err != nil {
		return false
	}
	defer p.Release()

	x := make([]bool, design.NumInputs())
	patterns := make([][]bool, trials)
	for trial := range patterns {
		r.Bits(x)
		patterns[trial] = append([]bool(nil), x...)
	}
	for i, id := range l.Circuit.PIs {
		w := p.Value(id)
		for trial, pat := range patterns {
			if pat[i] {
				w[trial/64] |= 1 << uint(trial%64)
			}
		}
	}
	run := func(key []bool) ([][]uint64, bool) {
		if err := p.SetKey(key); err != nil {
			return nil, false
		}
		p.Run()
		out := make([][]uint64, len(l.Circuit.POs))
		for j, id := range l.Circuit.POs {
			out[j] = append([]uint64(nil), p.Value(id)...)
		}
		return out, true
	}
	want, ok := run(l.Key) // correct key = original function
	if !ok {
		return false
	}
	got, ok := run(res.Key) // attacker's chosen key, pre-patch
	if !ok {
		return false
	}
	for trial, pat := range patterns {
		w, b := trial/64, uint(trial)%64
		if patch, patched := res.Patches[bitString(pat)]; patched {
			for j := range want {
				if patch[j] != (want[j][w]>>b&1 == 1) {
					return false
				}
			}
			continue
		}
		for j := range want {
			if (want[j][w]^got[j][w])>>b&1 == 1 {
				return false
			}
		}
	}
	return true
}

// bitString renders a pattern in the '0'/'1' form the bypass patch table
// is keyed by.
func bitString(x []bool) string {
	out := make([]byte, len(x))
	for i, b := range x {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// ensureNonZeroKey flips a bit if the drawn key is all-zero (the one key
// OraP cannot protect).
func ensureNonZeroKey(l *lock.Locked) {
	for _, b := range l.Key {
		if b {
			return
		}
	}
	// Flipping a key bit of SARLock means re-wiring an inverter; for the
	// study it is simpler to flip via the comparator's symmetry: the key
	// equals the protected pattern, so adjust both representations by
	// re-locking would be needed. In practice the RNG never draws zero
	// here; guard for determinism drift.
	panic("exp: drawn all-zero key; change the study seed")
}

// chipOracle builds an activated chip for the locked design and wraps it
// in the scan-protocol oracle behind a channel session.
func chipOracle(l *lock.Locked, prof benchgen.Profile, prot scan.Protection, seed uint64) (oracle.Oracle, error) {
	cfg, err := orap.Protect(l.Circuit, l.Key, prof.Pins, prof.PinOuts, prot, orap.Options{
		Rand: rng.NewNamed(seed, "other/protect"),
	})
	if err != nil {
		return nil, err
	}
	ch, err := scan.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := ch.Unlock(nil); err != nil {
		return nil, err
	}
	return oracle.NewSession(oracle.NewScan(ch), 0), nil
}

// FormatOtherAttacks renders the study.
func FormatOtherAttacks(rows []OtherAttackRow) string {
	header := []string{"Attack", "Defense", "Oracle", "Applies", "Design recovered", "Note"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Attack, r.Defense, r.Oracle,
			fmt.Sprint(r.Applies), fmt.Sprint(r.DesignRecovered), r.Note,
		})
	}
	return formatTable(header, cells)
}
