package attack

import (
	"fmt"

	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sim"
)

// appSATRoundsPerSettle is the number of DIP rounds between settlement
// checks, and appSATSettleSamples the number of random queries per check.
const (
	appSATRoundsPerSettle = 8
	appSATSettleSamples   = 64
)

// AppSATOptions tunes the approximate SAT attack.
type AppSATOptions struct {
	Budgets
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
	m, err := newMiter(locked, o)
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
	for {
		done, err := res.dipLoop(m, o, opts.iterations(), appSATRoundsPerSettle, m.AddIOConstraint, m.AssumeDiff())
		if err != nil {
			return res, err
		}
		// A consistent key: exact when no DIP is left, as in the plain
		// SAT attack, and otherwise the candidate to settle.
		key, err := consistentKey(m, m.AssumeNoDiff())
		if err != nil {
			return res, err
		}
		if !done {
			// Settlement: estimate the error of the current candidate
			// key on random queries, reinforcing each disagreement as a
			// constraint.
			bad, err := disagreements(ev, key, o, appSATSettleSamples, opts.Rand, m.AddIOConstraint)
			if err != nil {
				return res, err
			}
			done = bad == 0
		}
		if done {
			res.Key = key
			res.Converged = true
			return res, nil
		}
	}
}
