// Package attack implements the oracle-guided logic-locking attacks the
// OraP paper defends against:
//
//   - the SAT attack of Subramanyan, Ray and Malik (HOST'15),
//   - Double DIP (Shen & Zhou, GLSVLSI'17), a strengthened DIP search,
//   - AppSAT (Shamsi et al., HOST'17), approximate deobfuscation,
//   - the hill-climbing attack (Plaza & Markov, TC'15),
//   - key sensitization (Yasin et al., TCAD'16), and
//   - the bypass attack (Xu et al., CHES'17).
//
// Every attack sees the locked netlist plus a black-box oracle.Oracle.
// Against an unprotected chip (oracle.Comb) they recover the key or an
// equivalent one; against the OraP-gated oracle the observations describe
// the locked circuit, so the attacks converge to keys that fail functional
// equivalence — exactly the behaviour the paper's Section II-A argues.
package attack

import (
	"fmt"
	"math/bits"

	"orap/internal/aig"
	"orap/internal/cnf"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/sim"
)

// Result reports an attack's outcome.
type Result struct {
	// Key is the recovered key (nil when the attack failed to produce one).
	Key []bool
	// Iterations counts attack rounds (DIPs for SAT-family attacks,
	// restarts/improvement steps for hill climbing).
	Iterations int
	// OracleQueries counts oracle accesses consumed by the attack.
	OracleQueries int
	// Channel holds oracle-channel telemetry (unique patterns, cache
	// hits, scan cycles) when the attack ran against an oracle.Session;
	// zero otherwise.
	Channel oracle.ChannelStats
	// SolverStats aggregates SAT effort, when a solver was involved.
	SolverStats sat.Stats
	// Converged reports whether the attack terminated by its own
	// criterion (e.g. miter UNSAT) rather than a budget.
	Converged bool
}

// channelStats extracts channel telemetry from oracles that keep it
// (oracle.Session, or anything exposing Stats()).
func channelStats(o oracle.Oracle) oracle.ChannelStats {
	if s, ok := o.(interface{ Stats() oracle.ChannelStats }); ok {
		return s.Stats()
	}
	return oracle.ChannelStats{}
}

// finish stamps the oracle and solver telemetry of a result. Attacks
// defer it once, so every exit — budget, error or convergence — reports
// what it spent; s is nil for attacks that run no solver.
func (res *Result) finish(o oracle.Oracle, s *sat.Solver) {
	res.OracleQueries = o.Queries()
	res.Channel = channelStats(o)
	if s != nil {
		res.SolverStats = s.Stats()
	}
}

// Budgets bounds attack effort so experiments terminate even when a
// defense makes an attack diverge.
type Budgets struct {
	// MaxIterations bounds attack rounds (0 = default).
	MaxIterations int
	// MaxConflicts bounds total SAT conflicts (0 = unlimited).
	MaxConflicts int64
}

func (b Budgets) iterations(def int) int {
	if b.MaxIterations > 0 {
		return b.MaxIterations
	}
	return def
}

// ErrIterationBudget reports that an attack hit its round limit without
// converging.
var ErrIterationBudget = fmt.Errorf("attack: iteration budget exhausted")

// checkOracle rejects an oracle whose input or output width differs from
// the locked circuit's. Every oracle-guided attack calls it before its
// first query.
func checkOracle(locked *netlist.Circuit, o oracle.Oracle) error {
	if o.NumInputs() != locked.NumInputs() || o.NumOutputs() != locked.NumOutputs() {
		return fmt.Errorf("attack: oracle shape %d/%d does not match circuit %d/%d",
			o.NumInputs(), o.NumOutputs(), locked.NumInputs(), locked.NumOutputs())
	}
	return nil
}

// newMiter checks the oracle's shape and encodes the locked circuit's
// miter on a fresh solver bounded by maxConflicts (0 = unlimited).
func newMiter(locked *netlist.Circuit, o oracle.Oracle, maxConflicts int64) (*cnf.Miter, error) {
	if err := checkOracle(locked, o); err != nil {
		return nil, err
	}
	s := sat.New()
	s.MaxConflicts = maxConflicts
	return cnf.NewMiter(s, locked)
}

// consistentKey solves m's solver under assumps, which must disable every
// disequality, and returns key copy 1: a key that reproduces every
// recorded observation.
func consistentKey(m *cnf.Miter, assumps ...sat.Lit) ([]bool, error) {
	satisfiable, err := m.S.Solve(assumps...)
	if err != nil {
		return nil, err
	}
	if !satisfiable {
		// No key satisfies the observations: the "oracle" responses are
		// inconsistent with the locked netlist's key space. This is the
		// OraP signature when the protected chip answers queries with a
		// cleared key register that the netlist models differently.
		return nil, fmt.Errorf("attack: observations inconsistent with locked netlist (no candidate key)")
	}
	return m.ExtractKey1(), nil
}

// VerifyKey reports whether the locked circuit under the candidate key is
// functionally equivalent to the reference (original) circuit: true when
// no input distinguishes them. This is the experiment harness's success
// criterion ("the correct or an equivalent key"). The proof is
// aig.Equivalent's: structural hashing over shared inputs, then SAT on
// the cones of the output pairs left open.
func VerifyKey(locked, reference *netlist.Circuit, key []bool) (bool, error) {
	if len(key) != locked.NumKeys() {
		return false, fmt.Errorf("attack: key width %d != %d", len(key), locked.NumKeys())
	}
	if reference.NumKeys() != 0 {
		return false, fmt.Errorf("attack: reference circuit %q has key inputs", reference.Name)
	}
	if locked.NumInputs() != reference.NumInputs() || locked.NumOutputs() != reference.NumOutputs() {
		return false, fmt.Errorf("attack: locked/reference shapes differ")
	}
	lp, err := ir.Compile(locked)
	if err != nil {
		return false, err
	}
	rp, err := ir.Compile(reference)
	if err != nil {
		return false, err
	}
	return aig.Equivalent(lp, key, rp)
}

// SampleDisagreement estimates the fraction of random inputs on which the
// locked circuit under key disagrees (in at least one output bit) with the
// oracle; the attack study reports it for every recovered key. Patterns go
// through the oracle's word channel in batches of up to 64, and the
// candidate key evaluates word-parallel over the same batches.
func SampleDisagreement(locked *netlist.Circuit, key []bool, o oracle.Oracle, samples int, r *rng.Stream) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("attack: non-positive sample count %d", samples)
	}
	prog, err := ir.Compile(locked)
	if err != nil {
		return 0, err
	}
	ev, err := sim.ForProgram(prog, 1)
	if err != nil {
		return 0, err
	}
	defer ev.Release()
	bad, err := disagreements(ev, key, o, samples, r, nil)
	if err != nil {
		return 0, err
	}
	return float64(bad) / float64(samples), nil
}

// disagreements is the batched disagreement sampler behind
// SampleDisagreement and the AppSAT and Double DIP settle loops. It
// draws samples random patterns from r (one r.Bits per pattern, in
// pattern order), answers them through the oracle's word channel in
// batches of up to 64 lanes, runs key word-parallel on ev over the same
// batches, and returns how many patterns disagree in at least one
// output. When visit is non-nil it receives each disagreeing pattern and
// the oracle's response as fresh slices, in ascending lane order — the
// order a scalar loop would find them — so fixed-seed runs stay
// bit-identical.
func disagreements(ev *sim.Parallel, key []bool, o oracle.Oracle, samples int, r *rng.Stream, visit func(x, y []bool) error) (int, error) {
	if err := ev.SetKey(key); err != nil {
		return 0, err
	}
	prog := ev.Program()
	x := make([]bool, prog.NumInputs())
	in := make([]uint64, prog.NumInputs())
	bad := 0
	for done := 0; done < samples; {
		n := min(samples-done, 64)
		clear(in)
		for pat := 0; pat < n; pat++ {
			r.Bits(x)
			oracle.PackPattern(in, pat, x)
		}
		want, err := o.QueryWords(in, n)
		if err != nil {
			return bad, err
		}
		for i, id := range prog.PIs {
			ev.SetInput(int(id), in[i:i+1])
		}
		ev.Run()
		var diff uint64
		for j, id := range prog.POs {
			diff |= want[j] ^ ev.Value(int(id))[0]
		}
		diff &= oracle.LaneMask(n)
		bad += bits.OnesCount64(diff)
		for ; visit != nil && diff != 0; diff &= diff - 1 {
			pat := bits.TrailingZeros64(diff)
			xr := make([]bool, prog.NumInputs())
			yr := make([]bool, prog.NumOutputs())
			oracle.UnpackPattern(in, pat, xr)
			oracle.UnpackPattern(want, pat, yr)
			if err := visit(xr, yr); err != nil {
				return bad, err
			}
		}
		done += n
	}
	return bad, nil
}
