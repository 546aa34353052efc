package attack

import (
	"orap/internal/netlist"
	"orap/internal/oracle"
)

// SAT runs the oracle-guided SAT attack: repeatedly solve the miter for a
// distinguishing input pattern (DIP), query the oracle, and constrain both
// key copies with the observation; when the miter becomes unsatisfiable,
// every key consistent with the observations is functionally equivalent on
// all inputs, and one such key is extracted. The miter is the
// cone-of-influence form (cnf.NewMiter), which duplicates only
// key-reachable logic.
func SAT(locked *netlist.Circuit, o oracle.Oracle, b Budgets) (*Result, error) {
	m, err := newMiter(locked, o, b.MaxConflicts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	defer res.finish(o, m.S)
	maxIter := b.iterations(10000)
	for {
		satisfiable, err := m.S.Solve(m.AssumeDiff())
		if err != nil {
			return res, err
		}
		if !satisfiable {
			break // no more DIPs: keys consistent with observations are equivalent
		}
		if res.Iterations >= maxIter {
			return res, ErrIterationBudget
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
	}
	// Extract a consistent key with the disequality disabled.
	key, err := consistentKey(m, m.AssumeNoDiff())
	if err != nil {
		return res, err
	}
	res.Key = key
	res.Converged = true
	return res, nil
}
