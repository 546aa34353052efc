package sat

// LBDBuckets is the number of histogram buckets in Stats.LBDHist: bucket
// i (0-based) counts learned clauses with LBD i+1, and the final bucket
// absorbs every clause with LBD ≥ LBDBuckets.
const LBDBuckets = 8

// Stats carries solver counters, useful for the attack evaluations that
// report solver effort. The zero value is an empty tally; Add merges two
// tallies, so campaign drivers (ATPG, experiment tables) can aggregate
// per-solve stats into one figure.
type Stats struct {
	Decisions    int64
	Propagations int64
	// BinPropagations counts the implications served by the specialized
	// binary-clause watch lists, where the implied literal lives in the
	// watcher itself and propagation never dereferences clause memory.
	BinPropagations int64
	Conflicts       int64
	Restarts        int64
	// Learnt counts learned clauses, including learned units.
	Learnt int64
	// LearntLits counts the literals across learned clauses after
	// minimization; MinimizedLits counts the literals the on-the-fly
	// one-step minimizer removed before the clauses were stored.
	LearntLits    int64
	MinimizedLits int64
	// LBDSum accumulates the literal-block-distance (number of distinct
	// decision levels) of every learned clause; LBDHist is the matching
	// histogram (bucket i counts LBD i+1, last bucket is ≥ LBDBuckets).
	LBDSum  int64
	LBDHist [LBDBuckets]int64
	// Reductions counts clause-database reductions that performed work;
	// RemovedClauses the learned clauses they dropped.
	Reductions     int64
	RemovedClauses int64
}

// GlueClauses returns the number of learned clauses with LBD ≤ 2 — the
// "glue" tier that clause-database reduction never evicts.
func (s Stats) GlueClauses() int64 { return s.LBDHist[0] + s.LBDHist[1] }

// MeanLBD returns the mean literal-block distance of the learned
// clauses, or 0 when nothing was learned.
func (s Stats) MeanLBD() float64 {
	if s.Learnt == 0 {
		return 0
	}
	return float64(s.LBDSum) / float64(s.Learnt)
}

// MeanLearntLen returns the mean learned-clause length after
// minimization, or 0 when nothing was learned.
func (s Stats) MeanLearntLen() float64 {
	if s.Learnt == 0 {
		return 0
	}
	return float64(s.LearntLits) / float64(s.Learnt)
}
