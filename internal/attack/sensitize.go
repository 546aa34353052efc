package attack

import (
	"fmt"

	"orap/internal/cnf"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sat"
)

// sensitizeVerifySamples is the number of random other-key assignments
// used to confirm that a candidate pattern propagates the target bit
// regardless of the other key bits.
const sensitizeVerifySamples = 16

// SensitizeOptions tunes the key-sensitization attack.
type SensitizeOptions struct {
	// MaxConflicts bounds SAT effort per key bit (0 = unlimited).
	MaxConflicts int64
	// Rand drives verification sampling; required.
	Rand *rng.Stream
}

// SensitizeResult extends Result with per-bit resolution status.
type SensitizeResult struct {
	Result
	// Determined[i] reports whether key bit i was recovered; undetermined
	// bits are left false in Key.
	Determined []bool
}

// Sensitize runs the key-sensitization attack of Yasin et al.: for each
// key bit it searches (with SAT) for a "golden" input pattern that
// propagates the bit to a primary output without interference from the
// other key bits, verifies non-interference by sampling, then infers the
// bit from a single oracle response. Key bits whose gates interfere
// pairwise (strong logic locking, or weighted locking's control gates)
// stay undetermined — reproducing why the attack pushed the field toward
// interference-aware insertion.
func Sensitize(locked *netlist.Circuit, o oracle.Oracle, opts SensitizeOptions) (*SensitizeResult, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("attack: Sensitize requires a random stream")
	}
	if err := checkOracle(locked, o); err != nil {
		return nil, err
	}
	nk := locked.NumKeys()
	if nk == 0 {
		return nil, fmt.Errorf("attack: circuit has no key inputs")
	}
	// One compile serves the cone analysis, the golden-pattern encodings
	// and the verify loop.
	prog, err := ir.Compile(locked)
	if err != nil {
		return nil, err
	}
	res := &SensitizeResult{}
	res.Key = make([]bool, nk)
	res.Determined = make([]bool, nk)
	defer res.finish(o, nil)

	// Structural analysis: which outputs does each key bit reach, and
	// which outputs see exactly one key bit (isolated propagation, the
	// directly attackable case of Yasin et al.).
	keysReaching := make([][]int, locked.NumOutputs()) // per output: key bit indices in its TFI
	for b, keyNode := range locked.Keys {
		inCone := prog.TransitiveFanout(keyNode)
		for j, po := range locked.POs {
			if inCone[po] {
				keysReaching[j] = append(keysReaching[j], b)
			}
		}
	}

	// Confirmed golden patterns are not queried one by one: each bit's
	// inference is independent of the others, so the oracle confirmations
	// are deferred and sent through the word channel in batches of 64.
	type confirmation struct {
		bit, probe int
		x          []bool
		c0, c1     bool
	}
	var pending []confirmation

	otherKey := make([]bool, nk)
	key0 := make([]bool, nk)
	key1 := make([]bool, nk)
	for bit := 0; bit < nk; bit++ {
		// Candidate outputs: those reached by this bit, isolated ones
		// first (no other key bit in their fanin cone).
		var isolated, shared []int
		for j, ks := range keysReaching {
			reaches := false
			for _, b := range ks {
				if b == bit {
					reaches = true
					break
				}
			}
			if !reaches {
				continue
			}
			if len(ks) == 1 {
				isolated = append(isolated, j)
			} else {
				shared = append(shared, j)
			}
		}
		candidates := append(isolated, shared...)
		if len(candidates) > 8 {
			candidates = candidates[:8]
		}
		x, ok, err := findGoldenPattern(prog, bit, candidates, opts.MaxConflicts)
		if err != nil {
			return res, err
		}
		res.Iterations++
		if !ok {
			continue
		}
		// Verify per output: we need one primary output whose value at x
		// is constant across the other key bits for each value of the
		// target bit, with the two constants differing — a sensitized,
		// non-interfered propagation path for this bit alone.
		nOut := locked.NumOutputs()
		const0 := make([]bool, nOut) // value with bit=0 on first sample
		const1 := make([]bool, nOut)
		stable := make([]bool, nOut) // still constant across samples
		for j := range stable {
			stable[j] = true
		}
		for s := 0; s < sensitizeVerifySamples; s++ {
			opts.Rand.Bits(otherKey)
			copy(key0, otherKey)
			copy(key1, otherKey)
			key0[bit] = false
			key1[bit] = true
			o0, err := prog.Eval(x, key0)
			if err != nil {
				return res, err
			}
			o1, err := prog.Eval(x, key1)
			if err != nil {
				return res, err
			}
			for j := 0; j < nOut; j++ {
				if s == 0 {
					const0[j], const1[j] = o0[j], o1[j]
					continue
				}
				if o0[j] != const0[j] || o1[j] != const1[j] {
					stable[j] = false
				}
			}
		}
		probe := -1
		for j := 0; j < nOut; j++ {
			if stable[j] && const0[j] != const1[j] {
				probe = j
				break
			}
		}
		if probe < 0 {
			continue // every sensitized output is interfered with
		}
		pending = append(pending, confirmation{
			bit: bit, probe: probe, x: x,
			c0: const0[probe], c1: const1[probe],
		})
	}

	// Batched confirmation: one word-channel crossing per 64 golden
	// patterns, inferring each bit from its probe output's lane.
	in := make([]uint64, locked.NumInputs())
	for done := 0; done < len(pending); {
		n := len(pending) - done
		if n > 64 {
			n = 64
		}
		for i := range in {
			in[i] = 0
		}
		for pat := 0; pat < n; pat++ {
			oracle.PackPattern(in, pat, pending[done+pat].x)
		}
		y, err := o.QueryWords(in, n)
		if err != nil {
			return res, err
		}
		for pat := 0; pat < n; pat++ {
			c := pending[done+pat]
			got := y[c.probe]>>uint(pat)&1 == 1
			switch got {
			case c.c0:
				res.Key[c.bit] = false
				res.Determined[c.bit] = true
			case c.c1:
				res.Key[c.bit] = true
				res.Determined[c.bit] = true
			}
		}
		done += n
	}
	res.Converged = allTrue(res.Determined)
	return res, nil
}

// findGoldenPattern searches for an input pattern on which flipping key
// bit `bit` flips one of the candidate primary outputs for at least one
// assignment of the remaining key bits.
func findGoldenPattern(prog *ir.Program, bit int, outputs []int, maxConflicts int64) ([]bool, bool, error) {
	if len(outputs) == 0 {
		return nil, false, nil // bit reaches no output: never sensitizable
	}
	s := sat.New()
	s.MaxConflicts = maxConflicts
	a, err := cnf.EncodeProgram(s, prog, cnf.Options{})
	if err != nil {
		return nil, false, err
	}
	// Second copy shares PIs and all key vars except the target bit.
	sharedKeys := append([]sat.Var(nil), a.KeyVars...)
	sharedKeys[bit] = s.NewVar()
	b, err := cnf.EncodeProgram(s, prog, cnf.Options{PIVars: a.PIVars, KeyVars: sharedKeys})
	if err != nil {
		return nil, false, err
	}
	// Target bit takes opposite values in the two copies.
	s.AddClause(sat.MkLit(a.KeyVars[bit], true), sat.MkLit(b.KeyVars[bit], true))
	s.AddClause(sat.MkLit(a.KeyVars[bit], false), sat.MkLit(b.KeyVars[bit], false))
	diffs := make([]sat.Lit, 0, len(outputs))
	for _, j := range outputs {
		d := sat.MkLit(s.NewVar(), false)
		cnf.EmitXor2(s, d, sat.MkLit(a.POVars[j], false), sat.MkLit(b.POVars[j], false))
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...)
	satisfiable, err := s.Solve()
	if err != nil {
		return nil, false, err
	}
	if !satisfiable {
		return nil, false, nil
	}
	x := make([]bool, len(a.PIVars))
	for i, v := range a.PIVars {
		x[i] = s.Value(v) == sat.True
	}
	return x, true, nil
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return len(bs) > 0
}
