package exp

import (
	"fmt"
	"slices"

	"orap/internal/attack"
	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/rng"
	"orap/internal/scan"
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
	if !slices.Contains(sar.Key, true) {
		// The OraP chip answers with its key register cleared, which is
		// the correct key here: the study would show no protection.
		return nil, fmt.Errorf("exp: seed %d draws the all-zero SARLock key, which OraP cannot protect; use another seed", seed)
	}
	for _, prot := range []scan.Protection{scan.None, scan.OraPBasic} {
		o, err := newScanOracle(sar, scaled, prot, seed, "other/protect")
		if err != nil {
			return nil, err
		}
		chosen := append([]bool(nil), sar.Key...)
		chosen[0] = !chosen[0]
		row := OtherAttackRow{Attack: "bypass", Defense: "sarlock", Oracle: prot.String()}
		res, err := attack.Bypass(sar.Circuit, o, chosen, 256)
		if err != nil {
			row.Note = "patch budget exhausted"
		} else {
			row.Applies = true
			if row.DesignRecovered, err = patchedMatches(sar, res, seed); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}

	// --- Bypass vs weighted locking: not applicable (too much corruption). ---
	wll, err := lock.Weighted(design, lock.WeightedOptions{KeyBits: 12, ControlWidth: 3, KeyGates: 12, Rand: rng.NewNamed(seed, "other/wll")})
	if err != nil {
		return nil, err
	}
	oWll, err := newScanOracle(wll, scaled, scan.None, seed, "other/protect")
	if err != nil {
		return nil, err
	}
	rowW := OtherAttackRow{Attack: "bypass", Defense: "weighted", Oracle: "none"}
	if _, err := attack.Bypass(wll.Circuit, oWll, make([]bool, 12), 64); err != nil {
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
	spsAnti, err := attack.SPS(anti.Circuit, rng.NewNamed(seed, "other/sps1"))
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

	spsWll, err := attack.SPS(wll.Circuit, rng.NewNamed(seed, "other/sps2"))
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

// patchedMatches reports whether the bypass-patched design agrees with
// the original function, the locked circuit under the correct key, on 256
// random patterns.
func patchedMatches(l *lock.Locked, res *attack.BypassResult, seed uint64) (bool, error) {
	prog, err := ir.Compile(l.Circuit)
	if err != nil {
		return false, err
	}
	r := rng.NewNamed(seed, "other/verify")
	x := make([]bool, prog.NumInputs())
	for trial := 0; trial < 256; trial++ {
		r.Bits(x)
		want, err := prog.Eval(x, l.Key)
		if err != nil {
			return false, err
		}
		got, err := res.Eval(x)
		if err != nil {
			return false, err
		}
		if !slices.Equal(want, got) {
			return false, nil
		}
	}
	return true, nil
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
