package exp

import (
	"fmt"

	"orap/internal/attack"
	"orap/internal/audit"
	"orap/internal/benchgen"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/par"
	"orap/internal/rng"
	"orap/internal/scan"
)

// AttackRow is one line of the oracle-protection study (the executable
// form of the paper's Section II-A security analysis): an oracle-guided
// attack against the same locked circuit through an unprotected scan
// chain versus through the OraP-gated one.
type AttackRow struct {
	Attack     string
	Protection string
	// Converged reports the attack's own termination criterion.
	Converged bool
	// KeyCorrect reports functional equivalence of the recovered key.
	KeyCorrect bool
	// Disagreement is the sampled error rate of the recovered key vs the
	// true function (1.0 when no key was produced).
	Disagreement float64
	Iterations   int
	Queries      int
	// Unique is the number of distinct patterns the attack's session
	// admitted to the chip; CacheHitPct is the fraction of queries the
	// session transcript answered without chip access; ScanCycles is the
	// modeled test-clock cost of the admitted queries (2·chain-length+1
	// per query).
	Unique      int
	CacheHitPct float64
	ScanCycles  int64
	// Taint summarizes the netlist-side dataflow verdict on the locked
	// circuit ("tainted/total POs, key-leak findings") — computed once
	// from the key-taint fixpoint and the audit's key-leak rule, and
	// shared by both protection levels because OraP never rewrites the
	// netlist.
	Taint string
	// Exact is the symbolic refinement of Taint from the audit's ROBDD
	// backend: the minimum per-key-bit corruption rate over (input, key)
	// pairs and how many key bits have at least one distinguishing
	// input ("0.25r 16/16d"). Bits over the node budget append an "Nfb"
	// fallback count; "budget(N)" means every bit fell back. Shared by
	// both protection levels, like Taint.
	Exact string
	// Audit summarizes the static oracle-path audit of this protection
	// level ("errors E / warnings W", plus effective/nominal key entropy
	// for protected configurations) — the analyzer's verdict next to the
	// attack outcome it predicts.
	Audit string
	// Note carries failure detail (e.g. inconsistent observations).
	Note string
}

// attackStudyScale shrinks the b20 profile the attack study locks to a
// small slice: SAT attacks on full-size circuits with hundreds of key
// bits do not terminate by design.
const attackStudyScale = 0.004

// attackStudyKeyBits is the width of the weighted locking layer.
const attackStudyKeyBits = 16

// AttackStudyOptions configures the attack comparison.
type AttackStudyOptions struct {
	// Workers bounds the worker pool running attack×oracle cells
	// concurrently (0 = all cores, 1 = serial). Each cell builds its own
	// chip and derives its own streams, so the rows do not depend on it.
	Workers int
	// Seed drives every random choice.
	Seed uint64
}

// AttackStudy locks one benchmark with weighted logic locking and runs
// the SAT, Double DIP, AppSAT, and hill-climbing attacks twice each:
// against a conventional chip (scan.None — the assumption every
// oracle-based attack makes) and against the OraP-protected chip. The
// expected shape, and the paper's core claim: every attack recovers a
// correct key through the unprotected scan chain and fails (converges to
// a locked-circuit key with high disagreement) against OraP.
func AttackStudy(opts AttackStudyOptions) ([]AttackRow, error) {
	budgets := attack.Budgets{MaxIterations: 2000}
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		return nil, err
	}
	scaled := prof.Scale(attackStudyScale)
	circuit, err := benchgen.Generate(scaled, opts.Seed)
	if err != nil {
		return nil, err
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits:      attackStudyKeyBits,
		ControlWidth: 3,
		KeyGates:     attackStudyKeyBits,
		Rand:         rng.NewNamed(opts.Seed, "attacks/lock"),
	})
	if err != nil {
		return nil, err
	}

	type attackFn struct {
		name string
		run  func(o oracle.Oracle, seed uint64) (*attack.Result, error)
	}
	attacks := []attackFn{
		{"SAT", func(o oracle.Oracle, seed uint64) (*attack.Result, error) {
			return attack.SAT(l.Circuit, o, budgets)
		}},
		{"DoubleDIP", func(o oracle.Oracle, seed uint64) (*attack.Result, error) {
			return attack.DoubleDIP(l.Circuit, o, budgets)
		}},
		{"AppSAT", func(o oracle.Oracle, seed uint64) (*attack.Result, error) {
			return attack.AppSAT(l.Circuit, o, attack.AppSATOptions{
				Budgets: budgets,
				Rand:    rng.NewNamed(seed, "attacks/appsat"),
			})
		}},
		{"HillClimb", func(o oracle.Oracle, seed uint64) (*attack.Result, error) {
			return attack.HillClimb(l.Circuit, o, attack.HillOptions{
				Patterns: 512,
				Restarts: 12,
				Rand:     rng.NewNamed(seed, "attacks/hill"),
			})
		}},
	}

	// The cells share the locked and reference circuits read-only; every
	// evaluator compiles its own immutable program, so no warm-up is
	// needed before the fan-out.
	type cell struct {
		prot scan.Protection
		a    attackFn
	}
	var cells []cell
	prog, err := ir.Compile(l.Circuit)
	if err != nil {
		return nil, err
	}
	taintCol, exactCol := taintSummary(prog, l.Circuit), exactSummary(prog, l.Circuit)
	auditCol := make(map[scan.Protection]string)
	for _, prot := range []scan.Protection{scan.None, scan.OraPBasic} {
		// The audit column is per protection level, not per attack: run the
		// static analyzer once on the same configuration the cells rebuild.
		cfg, err := orap.Protect(l.Circuit, l.Key, scaled.Pins, scaled.PinOuts, prot, orap.Options{
			Rand: rng.NewNamed(opts.Seed, "attacks/orap"),
		})
		if err != nil {
			return nil, err
		}
		auditCol[prot], err = auditSummary(cfg)
		if err != nil {
			return nil, err
		}
		for _, a := range attacks {
			cells = append(cells, cell{prot, a})
		}
	}
	rows := make([]AttackRow, len(cells))
	err = par.ForEach(opts.Workers, len(cells), func(i int) error {
		prot, a := cells[i].prot, cells[i].a
		o, err := newScanOracle(l, scaled, prot, opts.Seed, "attacks/orap")
		if err != nil {
			return err
		}
		row := AttackRow{Attack: a.name, Protection: prot.String(), Disagreement: 1, Taint: taintCol, Exact: exactCol, Audit: auditCol[prot]}
		res, err := a.run(o, opts.Seed)
		// Channel telemetry comes from the session itself, so failed runs
		// report their (wasted) channel usage too.
		st := o.Stats()
		row.Unique = st.Unique
		row.CacheHitPct = 100 * st.HitRate()
		row.ScanCycles = st.ScanCycles
		if err != nil {
			row.Note = err.Error()
			if res != nil {
				row.Iterations = res.Iterations
				row.Queries = res.OracleQueries
			}
			rows[i] = row
			return nil
		}
		row.Converged = res.Converged
		row.Iterations = res.Iterations
		row.Queries = res.OracleQueries
		if res.Key != nil {
			ok, err := attack.VerifyKey(l.Circuit, circuit, res.Key)
			if err != nil {
				return err
			}
			row.KeyCorrect = ok
			ref, err := oracle.NewComb(circuit, nil)
			if err != nil {
				return err
			}
			dis, err := attack.SampleDisagreement(l.Circuit, res.Key, ref, 256,
				rng.NewNamed(opts.Seed, "attacks/disagree"))
			if err != nil {
				return err
			}
			row.Disagreement = dis
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// taintSummary condenses the netlist-side dataflow verdict into a table
// cell: how many primary outputs any key bit can structurally corrupt
// (the key-taint fixpoint) and how many key bits the audit proves
// linearly separable at an output (key-leak findings). Weighted locking
// should taint every output and leak nothing.
func taintSummary(prog *ir.Program, c *netlist.Circuit) string {
	taint := dataflow.KeyTaint(prog)
	tainted := 0
	for _, o := range prog.POs {
		if !taint[o].Empty() {
			tainted++
		}
	}
	rep := audit.AnalyzeProgram(prog, c, audit.Options{})
	leaks := len(rep.ByRule(audit.RuleKeyLeak))
	return fmt.Sprintf("%d/%dPO %dL", tainted, prog.NumOutputs(), leaks)
}

// exactSummary condenses the audit's symbolic backend into a table
// cell: the minimum per-key-bit corruption rate (how rarely the
// hardest bit is observable — the quantity approximate attacks
// exploit) and how many key bits provably have at least one
// distinguishing input. Key bits whose cones blew the BDD node budget
// are reported as a fallback suffix rather than silently dropped.
func exactSummary(prog *ir.Program, c *netlist.Circuit) string {
	rep := audit.AnalyzeProgram(prog, c, audit.Options{Exact: true})
	ex := rep.Exact
	minRate, okBits, withDist := 1.0, 0, 0
	for _, b := range ex.Bits {
		if !b.OK {
			continue
		}
		okBits++
		if b.Rate < minRate {
			minRate = b.Rate
		}
		if b.DistInputs.Sign() > 0 {
			withDist++
		}
	}
	if okBits == 0 {
		return fmt.Sprintf("budget(%d)", ex.Stats.Fallbacks)
	}
	s := fmt.Sprintf("%.3gr %d/%dd", minRate, withDist, len(ex.Bits))
	if ex.Stats.Fallbacks > 0 {
		s += fmt.Sprintf(" %dfb", ex.Stats.Fallbacks)
	}
	return s
}

// auditSummary condenses the oracle-path audit of a configuration into
// a table cell: error/warning counts, and effective vs nominal key
// entropy when the configuration carries an LFSR register.
func auditSummary(cfg scan.Config) (string, error) {
	rep, err := audit.Oracle(cfg, nil)
	if err != nil {
		return "", err
	}
	errs, warns, _ := rep.Counts()
	s := fmt.Sprintf("%dE/%dW", errs, warns)
	if rep.NominalEntropy > 0 {
		s += fmt.Sprintf(" %d/%db", rep.EffectiveEntropy, rep.NominalEntropy)
	}
	return s, nil
}

// newScanOracle builds a fresh activated chip for the locked circuit and
// wraps it in the scan-protocol oracle behind a channel session
// (batching, transcript memoisation, telemetry). label names the rng
// stream the OraP synthesis draws from.
func newScanOracle(l *lock.Locked, prof benchgen.Profile, prot scan.Protection, seed uint64, label string) (*oracle.Session, error) {
	cfg, err := orap.Protect(l.Circuit, l.Key, prof.Pins, prof.PinOuts, prot, orap.Options{
		Rand: rng.NewNamed(seed, label),
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

// FormatAttackStudy renders the attack comparison.
func FormatAttackStudy(rows []AttackRow) string {
	header := []string{"Attack", "Oracle", "Converged", "Key correct", "Disagreement", "Iters", "Queries", "Unique", "Hit%", "Scan cycles", "Taint", "Exact", "Audit", "Note"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Attack,
			r.Protection,
			fmt.Sprint(r.Converged),
			fmt.Sprint(r.KeyCorrect),
			fmt.Sprintf("%.3f", r.Disagreement),
			fmt.Sprint(r.Iterations),
			fmt.Sprint(r.Queries),
			fmt.Sprint(r.Unique),
			fmt.Sprintf("%.1f", r.CacheHitPct),
			fmt.Sprint(r.ScanCycles),
			r.Taint,
			r.Exact,
			r.Audit,
			r.Note,
		})
	}
	return formatTable(header, cells)
}
