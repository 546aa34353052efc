package exp

import (
	"fmt"

	"orap/internal/attack"
	"orap/internal/benchgen"
	"orap/internal/lfsr"
	"orap/internal/lock"
	"orap/internal/metrics"
	"orap/internal/oracle"
	"orap/internal/par"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/trojan"
)

// SATScalingRow is one point of the SAT-attack scaling ablation: the
// number of DIP iterations the attack needs as a function of defense and
// key width. The study reproduces the motivation for SAT-resistant
// schemes (point functions force ~2^n iterations) and, by contrast, why
// the paper prefers disabling the oracle altogether.
type SATScalingRow struct {
	Defense    string
	KeyBits    int
	Iterations int
	Converged  bool
	// Solver carries the attack's total SAT effort: conflicts,
	// propagations and the mean LBD of learned clauses, so the table shows
	// where the solver spends its time as the key widens.
	Solver sat.Stats
}

// SATScalingOptions configures the scaling study.
type SATScalingOptions struct {
	// Workers bounds the worker pool sweeping key widths concurrently
	// (0 = all cores, 1 = serial). Each width owns a named stream which
	// its defenses consume in a fixed order, so results do not depend on
	// it.
	Workers int
	// Seed drives every random choice.
	Seed uint64
}

// SATScaling measures SAT-attack iterations against random XOR locking,
// weighted locking, SARLock, Anti-SAT and TTLock at key widths 4, 6 and
// 8 on a small carrier circuit. Its 8 inputs (4 pins, 4 flip-flops)
// bound SARLock's and TTLock's width, so the sweep stops there; a lock
// whose key width differs from its row's is an error.
func SATScaling(opts SATScalingOptions) ([]SATScalingRow, error) {
	widths := []int{4, 6, 8}
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		return nil, err
	}
	scaled := prof.Scale(0.004)
	circuit, err := benchgen.Generate(scaled, opts.Seed)
	if err != nil {
		return nil, err
	}
	// Widths fan out across the pool; the defenses inside one width stay
	// serial because they draw from the width's shared stream in order.
	// The carrier circuit is shared read-only, which is safe without any
	// warm-up: evaluators compile their own immutable programs.
	perWidth := make([][]SATScalingRow, len(widths))
	err = par.ForEach(opts.Workers, len(widths), func(wi int) error {
		w := widths[wi]
		type defense struct {
			name string
			mk   func() (*lock.Locked, error)
		}
		r := rng.NewNamed(opts.Seed, fmt.Sprintf("scaling/%d", w))
		defs := []defense{
			{"random-xor", func() (*lock.Locked, error) { return lock.RandomXOR(circuit, w, r) }},
			{"weighted", func() (*lock.Locked, error) {
				return lock.Weighted(circuit, lock.WeightedOptions{KeyBits: w, ControlWidth: 2, KeyGates: w, Rand: r})
			}},
			{"sarlock", func() (*lock.Locked, error) { return lock.SARLock(circuit, w, r) }},
			{"antisat", func() (*lock.Locked, error) { return lock.AntiSAT(circuit, w/2, r) }},
			{"ttlock", func() (*lock.Locked, error) { return lock.TTLock(circuit, w, r) }},
		}
		for _, d := range defs {
			l, err := d.mk()
			if err != nil {
				return err
			}
			if l.Circuit.NumKeys() != w {
				return fmt.Errorf("exp: %s locked %d key bits for the %d-bit row", d.name, l.Circuit.NumKeys(), w)
			}
			o, err := oracle.NewComb(circuit, nil)
			if err != nil {
				return err
			}
			res, err := attack.SAT(l.Circuit, o, attack.Budgets{MaxIterations: 1 << 14})
			row := SATScalingRow{Defense: d.name, KeyBits: l.Circuit.NumKeys()}
			if err == nil {
				row.Iterations = res.Iterations
				row.Converged = res.Converged
			} else if err == attack.ErrIterationBudget {
				row.Iterations = res.Iterations
			} else {
				return err
			}
			if res != nil {
				row.Solver = res.SolverStats
			}
			perWidth[wi] = append(perWidth[wi], row)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []SATScalingRow
	for _, wr := range perWidth {
		rows = append(rows, wr...)
	}
	return rows, nil
}

// FormatSATScaling renders the scaling study, including the solver-effort
// columns (total conflicts and propagations, mean learned-clause LBD).
func FormatSATScaling(rows []SATScalingRow) string {
	header := []string{"Defense", "Key bits", "SAT iterations", "Converged", "Conflicts", "Propagations", "Mean LBD"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Defense, fmt.Sprint(r.KeyBits), fmt.Sprint(r.Iterations), fmt.Sprint(r.Converged),
			fmt.Sprint(r.Solver.Conflicts), fmt.Sprint(r.Solver.Propagations), fmt.Sprintf("%.2f", r.Solver.MeanLBD()),
		})
	}
	return formatTable(header, cells)
}

// XorTreeRow is one point of the attack-(d) design-space ablation: the
// XOR-tree payload the defender forces as a function of the LFSR wiring
// and unlock schedule.
type XorTreeRow struct {
	TapSpacing int
	Seeds      int
	FreeRun    int
	XorGates   int
	PayloadGE  float64
}

// XorTreeSweep sizes the scenario-(d) Trojan for a sweep of tap spacings
// and schedules at a fixed key width, demonstrating the designer's
// levers the paper lists: "the complexity of the XOR trees depends on the
// LFSR's characteristic polynomial, the number of seeds fed to the LFSR,
// the number and positions of reseeding points … and the number of
// free-run cycles". The key register is 128 bits wide.
func XorTreeSweep() ([]XorTreeRow, error) {
	const keyBits = 128
	var rows []XorTreeRow
	for _, spacing := range []int{0, 16, 8, 4} { // 0 = plain shift register
		for _, sched := range []struct{ seeds, freeRun int }{
			{1, 0}, {2, 2}, {4, 4}, {8, 8},
		} {
			cfg := lfsr.Config{N: keyBits, Inject: lfsr.AllInject(keyBits)}
			if spacing > 0 {
				cfg.Taps = lfsr.StandardTaps(keyBits, spacing)
			}
			sc := lfsr.UniformSchedule(sched.seeds, sched.freeRun)
			xors, err := trojan.XorTreeGates(cfg, sc)
			if err != nil {
				return nil, err
			}
			p, err := trojan.PayloadD(cfg, sc)
			if err != nil {
				return nil, err
			}
			rows = append(rows, XorTreeRow{
				TapSpacing: spacing,
				Seeds:      sched.seeds,
				FreeRun:    sched.freeRun,
				XorGates:   xors,
				PayloadGE:  p.GateEquivalents,
			})
		}
	}
	return rows, nil
}

// FormatXorTreeSweep renders the design-space sweep.
func FormatXorTreeSweep(rows []XorTreeRow) string {
	header := []string{"Tap spacing", "Seeds", "Free-run", "XOR2 gates", "Payload (GE)"}
	var cells [][]string
	for _, r := range rows {
		spacing := "none (shift reg)"
		if r.TapSpacing > 0 {
			spacing = fmt.Sprint(r.TapSpacing)
		}
		cells = append(cells, []string{
			spacing, fmt.Sprint(r.Seeds), fmt.Sprint(r.FreeRun), fmt.Sprint(r.XorGates), fmt.Sprintf("%.0f", r.PayloadGE),
		})
	}
	return formatTable(header, cells)
}

// CtrlWidthRow is one point of the control-gate-width ablation for
// weighted logic locking: actuation probability and measured HD.
type CtrlWidthRow struct {
	ControlWidth int
	HDPercent    float64
}

// CtrlWidthSweep measures HD as a function of the weighted-locking
// control gate width on a mid-size generated circuit, reproducing why
// Table I uses 3-input control gates for most circuits (wider gates
// actuate more but cost more area). The widths 1, 2, 3 and 5 run
// concurrently on up to workers workers (0 = all cores); each owns named
// streams, so the rows do not depend on the pool size.
func CtrlWidthSweep(seed uint64, workers int) ([]CtrlWidthRow, error) {
	widths := []int{1, 2, 3, 5}
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		return nil, err
	}
	scaled := prof.Scale(0.02)
	circuit, err := benchgen.Generate(scaled, seed)
	if err != nil {
		return nil, err
	}
	// The carrier circuit is shared read-only across widths.
	rows := make([]CtrlWidthRow, len(widths))
	err = par.ForEach(workers, len(widths), func(i int) error {
		w := widths[i]
		keyBits := 24
		l, err := lock.Weighted(circuit, lock.WeightedOptions{
			KeyBits:      keyBits,
			ControlWidth: w,
			KeyGates:     keyBits / w,
			Rand:         rng.NewNamed(seed, fmt.Sprintf("ctrl/%d", w)),
		})
		if err != nil {
			return err
		}
		hd, err := metrics.HammingDistance(l.Circuit, l.Key, metrics.HDOptions{
			Patterns:  1 << 13,
			WrongKeys: 6,
			Workers:   workers,
			Rand:      rng.NewNamed(seed, fmt.Sprintf("ctrl/hd/%d", w)),
		})
		if err != nil {
			return err
		}
		rows[i] = CtrlWidthRow{ControlWidth: w, HDPercent: hd.HDPercent}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCtrlWidthSweep renders the control-width sweep.
func FormatCtrlWidthSweep(rows []CtrlWidthRow) string {
	header := []string{"Ctrl width", "HD (%)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{fmt.Sprint(r.ControlWidth), fmt.Sprintf("%.2f", r.HDPercent)})
	}
	return formatTable(header, cells)
}

// KeySizeRow is one point of the key-size saturation study that
// reproduces the paper's Table I methodology sentence: "we set 256 as
// maximum key size. However, we stopped with smaller key sizes if output
// corruptibility with HD = 50% had been achieved … or if output
// corruptibility, in terms of HD, saturated."
type KeySizeRow struct {
	KeyBits   int
	HDPercent float64
}

// KeySizeSweep measures HD against the key (LFSR) size on one generated
// circuit, exposing the saturation the paper's stopping rule relies on.
// The sizes 6, 12, 24, 48 and 96 run concurrently on up to workers
// workers (0 = all cores); each owns named streams, so the rows do not
// depend on the pool size.
func KeySizeSweep(seed uint64, workers int) ([]KeySizeRow, error) {
	sizes := []int{6, 12, 24, 48, 96}
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		return nil, err
	}
	scaled := prof.Scale(0.05)
	circuit, err := benchgen.Generate(scaled, seed)
	if err != nil {
		return nil, err
	}
	rows := make([]KeySizeRow, len(sizes))
	err = par.ForEach(workers, len(sizes), func(i int) error {
		n := sizes[i]
		l, err := lock.Weighted(circuit, lock.WeightedOptions{
			KeyBits:      n,
			ControlWidth: 3,
			Rand:         rng.NewNamed(seed, fmt.Sprintf("keysize/%d", n)),
		})
		if err != nil {
			return err
		}
		hd, err := metrics.HammingDistance(l.Circuit, l.Key, metrics.HDOptions{
			Patterns:  1 << 13,
			WrongKeys: 6,
			Workers:   workers,
			Rand:      rng.NewNamed(seed, fmt.Sprintf("keysize/hd/%d", n)),
		})
		if err != nil {
			return err
		}
		rows[i] = KeySizeRow{KeyBits: n, HDPercent: hd.HDPercent}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatKeySizeSweep renders the key-size saturation study.
func FormatKeySizeSweep(rows []KeySizeRow) string {
	header := []string{"Key bits", "HD (%)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{fmt.Sprint(r.KeyBits), fmt.Sprintf("%.2f", r.HDPercent)})
	}
	return formatTable(header, cells)
}
