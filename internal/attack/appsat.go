package attack

import (
	"fmt"

	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sim"
)

// AppSATOptions tunes the approximate SAT attack.
type AppSATOptions struct {
	Budgets
	// RoundsPerSettle is the number of DIP rounds between settlement
	// checks (default 8).
	RoundsPerSettle int
	// SettleSamples is the number of random queries per settlement check
	// (default 64).
	SettleSamples int
	// Rand drives the random settlement queries; required.
	Rand *rng.Stream
}

// AppSAT runs the approximate SAT attack of Shamsi et al.: ordinary DIP
// rounds interleaved with random-query settlement checks. When the
// current candidate key agrees with the oracle on a whole random sample,
// the attack stops early and reports that key, which for
// point-function defenses (SARLock-style) is an approximate key that is
// wrong on only a vanishing fraction of inputs. Random queries that
// disagree are added as constraints, reinforcing convergence.
func AppSAT(locked *netlist.Circuit, o oracle.Oracle, opts AppSATOptions) (*Result, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("attack: AppSAT requires a random stream")
	}
	if opts.RoundsPerSettle <= 0 {
		opts.RoundsPerSettle = 8
	}
	if opts.SettleSamples <= 0 {
		opts.SettleSamples = 64
	}
	m, err := newMiter(locked, o, opts.MaxConflicts)
	if err != nil {
		return nil, err
	}
	// Settlement evaluates the candidate key word-parallel on the miter's
	// compiled program; no second compile of the locked circuit.
	ev, err := sim.ForProgram(m.Prog, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	defer res.finish(o, m.S)
	maxIter := opts.iterations(10000)

	for {
		if res.Iterations >= maxIter {
			return res, ErrIterationBudget
		}
		satisfiable, err := m.S.Solve(m.AssumeDiff())
		if err != nil {
			return res, err
		}
		if !satisfiable {
			// Exact convergence, as in the plain SAT attack.
			key, err := consistentKey(m, m.AssumeNoDiff())
			if err != nil {
				return res, err
			}
			res.Key = key
			res.Converged = true
			return res, nil
		}
		x := m.ExtractInputs()
		y, err := oracle.Query(o, x)
		if err != nil {
			return res, err
		}
		if err := m.AddIOConstraint(x, y); err != nil {
			return res, err
		}
		res.Iterations++

		if res.Iterations%opts.RoundsPerSettle != 0 {
			continue
		}
		// Settlement: estimate error of the current candidate key on
		// random queries, reinforcing each disagreement as a constraint.
		key, err := consistentKey(m, m.AssumeNoDiff())
		if err != nil {
			return res, err
		}
		bad, err := disagreements(ev, key, o, opts.SettleSamples, opts.Rand, m.AddIOConstraint)
		if err != nil {
			return res, err
		}
		if bad == 0 {
			res.Key = key
			res.Converged = true
			return res, nil
		}
	}
}
