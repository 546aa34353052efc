package attack

import (
	"orap/internal/cnf"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/sat"
)

// SAT runs the oracle-guided SAT attack: repeatedly solve the miter for a
// distinguishing input pattern (DIP), query the oracle, and constrain both
// key copies with the observation; when the miter becomes unsatisfiable,
// every key consistent with the observations is functionally equivalent on
// all inputs, and one such key is extracted. The miter is the
// cone-of-influence form (cnf.NewMiter), which duplicates only
// key-reachable logic.
func SAT(locked *netlist.Circuit, o oracle.Oracle, b Budgets) (*Result, error) {
	m, err := newMiter(locked, o)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	defer res.finish(o, m.S)
	if _, err := res.dipLoop(m, o, b.iterations(), 0, m.AddIOConstraint, m.AssumeDiff()); err != nil {
		return res, err
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

// dipLoop is the DIP loop of SAT, AppSAT, Double DIP and Bypass. Each
// round solves m's solver under assumps and reports true once no DIP is
// left. With a DIP pending, the round returns ErrIterationBudget when
// res.Iterations has reached maxIter; otherwise it queries the oracle
// with the DIP, passes the pattern and the response to record, and
// counts the round. A positive n returns false after n rounds, so the
// caller can settle between runs; n ≤ 0 runs until no DIP is left.
func (res *Result) dipLoop(m *cnf.Miter, o oracle.Oracle, maxIter, n int, record func(x, y []bool) error, assumps ...sat.Lit) (bool, error) {
	for round := 0; n <= 0 || round < n; round++ {
		satisfiable, err := m.S.Solve(assumps...)
		if err != nil {
			return false, err
		}
		if !satisfiable {
			return true, nil
		}
		if res.Iterations >= maxIter {
			return false, ErrIterationBudget
		}
		x := m.ExtractInputs()
		y, err := oracle.Query(o, x)
		if err == nil {
			err = record(x, y)
		}
		if err != nil {
			return false, err
		}
		res.Iterations++
	}
	return false, nil
}
