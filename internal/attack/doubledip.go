package attack

import (
	"orap/internal/cnf"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/sim"
)

// doubleDIPSettleSamples is the number of deterministic random queries per
// settlement round. Enough to catch a surviving wrong-key class on
// traditional locking (which disagrees on a large input fraction) while a
// point-function tail — wrong on ~1 of 2^n patterns — settles clean, so the
// exponential-tail skip that motivates Double DIP is preserved.
const doubleDIPSettleSamples = 32

// DoubleDIP runs the Double-DIP attack: each iteration searches for an
// input pattern that simultaneously distinguishes two *distinct* key pairs
// (a "2-DIP"), so every query eliminates at least two wrong-key
// equivalence classes. Like the published attack it *stops* when no 2-DIP
// exists and extracts a key consistent with the observations: on compound
// defenses (traditional locking + SARLock-style point function) the
// traditional portion is fully resolved while the point-function tail —
// which only ordinary one-key DIPs could drain, at one key per query — is
// skipped, so the returned key is approximately correct (wrong on at most
// a couple of input patterns) after exponentially fewer queries than the
// plain SAT attack.
func DoubleDIP(locked *netlist.Circuit, o oracle.Oracle, b Budgets) (*Result, error) {
	// Two miters sharing the primary inputs: (k1,k2) and (k3,k4).
	m1, err := newMiter(locked, o, b.MaxConflicts)
	if err != nil {
		return nil, err
	}
	s := m1.S
	m2, err := cnf.NewMiterShared(s, m1)
	if err != nil {
		return nil, err
	}
	// Require the four key copies to be pairwise distinct across the two
	// pairs (k1≠k3, k1≠k4, k2≠k3, k2≠k4; within-pair distinctness is
	// implied by the output disequality). On a pure point-function
	// defense both pairs would need a key equal to the input pattern,
	// which distinctness forbids — hence no 2-DIP survives there.
	actPair := s.NewVar()
	for _, pair := range [][2][]sat.Var{
		{m1.Key1, m2.Key1}, {m1.Key1, m2.Key2},
		{m1.Key2, m2.Key1}, {m1.Key2, m2.Key2},
	} {
		diff := make([]sat.Lit, 0, len(pair[0])+1)
		diff = append(diff, sat.MkLit(actPair, true))
		for i := range pair[0] {
			d := sat.MkLit(s.NewVar(), false)
			cnf.EmitXor2(s, d, sat.MkLit(pair[0][i], false), sat.MkLit(pair[1][i], false))
			diff = append(diff, d)
		}
		s.AddClause(diff...)
	}

	res := &Result{}
	defer res.finish(o, s)
	maxIter := b.iterations(10000)
	record := func(x []bool, y []bool) error {
		if err := m1.AddIOConstraint(x, y); err != nil {
			return err
		}
		return m2.AddIOConstraint(x, y)
	}
	// Settlement validation evaluates candidate keys word-parallel on the
	// miter's compiled program; the random stream is fixed-seeded so the
	// attack stays run-to-run and worker-count deterministic.
	ev, err := sim.ForProgram(m1.Prog, 1)
	if err != nil {
		return nil, err
	}
	defer ev.Release()
	settleRand := rng.NewNamed(0x2d1b, "attack/doubledip-settle")
	settleRounds := 0
	for {
		// Phase 1: drain 2-DIPs (both miters differ, pairs distinct).
		for {
			if res.Iterations >= maxIter {
				return res, ErrIterationBudget
			}
			satisfiable, err := s.Solve(m1.AssumeDiff(), m2.AssumeDiff(), sat.MkLit(actPair, false))
			if err != nil {
				return res, err
			}
			if !satisfiable {
				break // no 2-DIP left: settle with a consistent key
			}
			x := m1.ExtractInputs()
			y, err := oracle.Query(o, x)
			if err == nil {
				err = record(x, y)
			}
			if err != nil {
				return res, err
			}
			res.Iterations++
		}
		// Phase 2: extract a consistent key and validate it on a sample of
		// random queries. A wrong-key class that survives the 2-DIP loop on
		// traditional locking (no second disjoint pair left to distinguish
		// it) disagrees with the oracle on a large fraction of inputs and is
		// caught here; each disagreement is reinforced as an IO constraint
		// and the search resumes. Point-function tails settle clean.
		key, err := consistentKey(m1, m1.AssumeNoDiff(), m2.AssumeNoDiff(), sat.MkLit(actPair, true))
		if err != nil {
			return res, err
		}
		bad, err := disagreements(ev, key, o, doubleDIPSettleSamples, settleRand, record)
		if err != nil {
			return res, err
		}
		if bad == 0 {
			res.Key = key
			res.Converged = true
			return res, nil
		}
		settleRounds++
		if settleRounds >= maxIter {
			return res, ErrIterationBudget
		}
	}
}
