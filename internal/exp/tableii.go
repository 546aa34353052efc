package exp

import (
	"fmt"

	"orap/internal/atpg"
	"orap/internal/benchgen"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/par"
	"orap/internal/rng"
)

// TableIIRow is one line of the paper's Table II: stuck-at fault coverage
// and redundant+aborted fault counts for the original and the protected
// version of each benchmark.
type TableIIRow struct {
	Circuit     string
	OrigFC      float64
	OrigRedAbrt int
	ProtFC      float64
	ProtRedAbrt int
	OrigFaults  int
	ProtFaults  int
}

// randomBlocks is the number of 64-pattern random fault-simulation
// blocks before deterministic ATPG (the HOPE prefilter).
const randomBlocks = 32

// TableIIOptions configures the Table II reproduction.
type TableIIOptions struct {
	// Scale shrinks the generated circuits (1.0 = paper scale).
	Scale float64
	// Circuits selects a subset by name (default: all eight).
	Circuits []string
	// Workers bounds the worker pool running circuit rows concurrently
	// and the fault-simulation fan-out inside each row (0 = all cores,
	// 1 = serial). The rows do not depend on it.
	Workers int
	// Seed drives every random choice.
	Seed uint64
}

// TableII runs the paper's testability experiment: ATPG (with a random
// fault-simulation prefilter) on the original circuit and on the version
// protected with OraP + weighted logic locking. Because the key register
// is part of the scan chains, key inputs are fully controllable during
// test, so the protected circuit's key gates act as test points and its
// coverage improves — the paper's headline observation.
func TableII(opts TableIIOptions) ([]TableIIRow, error) {
	if opts.Scale <= 0 || opts.Scale > 1 {
		opts.Scale = 1
	}
	names := opts.Circuits
	if len(names) == 0 {
		for _, p := range benchgen.Profiles {
			names = append(names, p.Name)
		}
	}
	// Rows are independent (per-name streams, per-row circuits), so they
	// fan out across the pool in the requested output order.
	rows := make([]TableIIRow, len(names))
	err := par.ForEach(opts.Workers, len(names), func(i int) error {
		name := names[i]
		prof, err := benchgen.ProfileByName(name)
		if err != nil {
			return err
		}
		scaled := prof.Scale(opts.Scale)
		circuit, err := benchgen.Generate(scaled, opts.Seed)
		if err != nil {
			return err
		}
		l, err := lock.Weighted(circuit, lock.WeightedOptions{
			KeyBits:      scaled.LFSRSize,
			ControlWidth: scaled.CtrlInputs,
			Rand:         rng.NewNamed(opts.Seed, "tableII/lock/"+name),
		})
		if err != nil {
			return err
		}

		origSum, err := testability(circuit, opts, "orig/"+name)
		if err != nil {
			return err
		}
		protSum, err := testability(l.Circuit, opts, "prot/"+name)
		if err != nil {
			return err
		}
		rows[i] = TableIIRow{
			Circuit:     prof.Name,
			OrigFC:      origSum.Coverage(),
			OrigRedAbrt: origSum.RedundantPlusAborted(),
			ProtFC:      protSum.Coverage(),
			ProtRedAbrt: protSum.RedundantPlusAborted(),
			OrigFaults:  origSum.Total,
			ProtFaults:  protSum.Total,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// testability runs the full random-then-deterministic flow on one circuit.
func testability(c *netlist.Circuit, opts TableIIOptions, stream string) (atpg.Summary, error) {
	prog, err := ir.Compile(c)
	if err != nil {
		return atpg.Summary{}, err
	}
	sim, err := faultsim.ForProgram(prog)
	if err != nil {
		return atpg.Summary{}, err
	}
	sim.Workers = opts.Workers
	faults := faultsim.CollapseFaults(c)
	rand := sim.RunRandom(faults, randomBlocks, rng.NewNamed(opts.Seed, "tableII/"+stream))
	return atpg.Run(c, sim, rand, atpg.Options{})
}

// FormatTableII renders Table II in the paper's column layout.
func FormatTableII(rows []TableIIRow) string {
	header := []string{"Circuit", "Orig FC (%)", "Orig #Red+Abrt", "Prot FC (%)", "Prot #Red+Abrt"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Circuit,
			fmt.Sprintf("%.2f", r.OrigFC),
			fmt.Sprint(r.OrigRedAbrt),
			fmt.Sprintf("%.2f", r.ProtFC),
			fmt.Sprint(r.ProtRedAbrt),
		})
	}
	return formatTable(header, cells)
}
