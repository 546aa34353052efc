package exp

import (
	"fmt"

	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/metrics"
	"orap/internal/orap"
	"orap/internal/par"
	"orap/internal/rng"
	"orap/internal/scan"
	"orap/internal/synth"
)

// TableIRow is one line of the paper's Table I: Hamming distance, area
// and delay overhead for a benchmark locked with OraP + weighted logic
// locking.
type TableIRow struct {
	Circuit    string
	Gates      int // gates of the combinational part, w/o inverters
	Outputs    int
	LFSRSize   int // = key size
	CtrlInputs int
	HDPercent  float64
	AreaOvhd   float64
	DelayOvhd  float64
}

// TableIOptions configures the Table I reproduction.
type TableIOptions struct {
	// Scale shrinks the generated circuits (1.0 = paper scale).
	Scale float64
	// Patterns is the pseudorandom pattern count for HD (default: the
	// metrics package default, "a few hundreds of thousands").
	Patterns int
	// Circuits selects a subset by name (default: all eight).
	Circuits []string
	// Workers bounds the worker pool running circuit rows concurrently
	// (0 = all cores, 1 = serial). Every circuit derives its streams from
	// its own name, so the rows do not depend on it.
	Workers int
	// Seed drives every random choice.
	Seed uint64
}

// TableI locks each benchmark with weighted logic locking (control-gate
// widths from Table I), protects it with the basic OraP scheme, and
// measures HD, area overhead and delay overhead exactly as the paper
// describes: pseudorandom patterns for HD, and a common resynthesis of
// the original and protected circuits for the overheads, with the OraP
// register hardware (pulse generators, reseeding and polynomial XORs)
// charged to the protected side and flip-flops excluded.
func TableI(opts TableIOptions) ([]TableIRow, error) {
	if opts.Scale <= 0 || opts.Scale > 1 {
		opts.Scale = 1
	}
	names := opts.Circuits
	if len(names) == 0 {
		for _, p := range benchgen.Profiles {
			names = append(names, p.Name)
		}
	}
	// Circuit rows are independent — each derives its randomness from its
	// own named streams and generates its own circuit — so they fan out
	// across the pool while the output keeps the requested order.
	rows := make([]TableIRow, len(names))
	err := par.ForEach(opts.Workers, len(names), func(i int) error {
		name := names[i]
		prof, err := benchgen.ProfileByName(name)
		if err != nil {
			return err
		}
		scaled := prof.Scale(opts.Scale)
		r := rng.NewNamed(opts.Seed, "tableI/"+name)
		circuit, err := benchgen.Generate(scaled, opts.Seed)
		if err != nil {
			return err
		}
		l, err := lock.Weighted(circuit, lock.WeightedOptions{
			KeyBits:      scaled.LFSRSize,
			ControlWidth: scaled.CtrlInputs,
			Rand:         r,
		})
		if err != nil {
			return fmt.Errorf("exp: weighted lock of %s: %w", name, err)
		}
		// Protect with basic OraP: the register overhead enters the area
		// accounting; the locking itself is unchanged.
		cfg, err := orap.Protect(l.Circuit, l.Key, scaled.Pins, scaled.PinOuts, scan.OraPBasic, orap.Options{Rand: r})
		if err != nil {
			return fmt.Errorf("exp: OraP protect of %s: %w", name, err)
		}
		regOv := orap.RegisterOverhead(cfg.LFSR)

		hd, err := metrics.HammingDistance(l.Circuit, l.Key, metrics.HDOptions{
			Patterns: opts.Patterns,
			Workers:  opts.Workers,
			Rand:     rng.NewNamed(opts.Seed, "tableI/hd/"+name),
		})
		if err != nil {
			return err
		}
		ov, err := synth.Compare(circuit, l.Circuit, regOv.Gates())
		if err != nil {
			return err
		}
		rows[i] = TableIRow{
			Circuit:    prof.Name,
			Gates:      circuit.GateCount(),
			Outputs:    circuit.NumOutputs(),
			LFSRSize:   scaled.LFSRSize,
			CtrlInputs: scaled.CtrlInputs,
			HDPercent:  hd.HDPercent,
			AreaOvhd:   ov.AreaPercent(),
			DelayOvhd:  ov.DelayPercent(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTableI renders Table I in the paper's column layout.
func FormatTableI(rows []TableIRow) string {
	header := []string{"Circuit", "# Gates", "# Outputs", "LFSR size", "Ctrl gate", "HD (%)", "Ar. Ovhd (%)", "Del. Ovhd (%)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Circuit,
			fmt.Sprint(r.Gates),
			fmt.Sprint(r.Outputs),
			fmt.Sprint(r.LFSRSize),
			fmt.Sprint(r.CtrlInputs),
			fmt.Sprintf("%.2f", r.HDPercent),
			fmt.Sprintf("%.2f", r.AreaOvhd),
			fmt.Sprintf("%.2f", r.DelayOvhd),
		})
	}
	return formatTable(header, cells)
}
