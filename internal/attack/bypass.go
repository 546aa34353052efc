package attack

import (
	"fmt"

	"orap/internal/cnf"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/sat"
	"orap/internal/sim"
)

// BypassOptions tunes the bypass attack.
type BypassOptions struct {
	// MaxPatches bounds the number of corrected input patterns; the
	// attack reports failure beyond it (bypass is only economical against
	// low-corruption defenses where few inputs differ). Default 64.
	MaxPatches int
	// MaxConflicts bounds SAT effort (0 = unlimited).
	MaxConflicts int64
}

// BypassResult reports the bypass attack's outcome.
type BypassResult struct {
	// Key is the arbitrary (wrong) key the patched circuit applies.
	Key []bool
	// Patches maps each bypassed pattern of the key-support inputs (the
	// inputs that reach a key-dependent output, rendered '0'/'1' in
	// declaration order) to the outputs on which the oracle's answer
	// differs from the circuit under Key; the attacker realizes them as
	// comparator-plus-XOR bypass hardware around the locked chip.
	Patches map[string][]bool
	// OracleQueries counts oracle accesses.
	OracleQueries int
	// Channel holds oracle-channel telemetry when the attack ran against
	// an oracle.Session; zero otherwise.
	Channel oracle.ChannelStats

	// support lists the key-support inputs (cnf.Miter.Support).
	support []int
	// eval runs the locked circuit on the miter's compiled program.
	eval *sim.Evaluator
}

// Bypass runs the bypass attack of Xu et al. (CHES'17): instead of
// searching for the correct key, the attacker fixes an arbitrary key,
// enumerates (with SAT) the inputs on which that keyed circuit could
// still disagree with the oracle, queries the oracle exactly there, and
// wraps the chip in bypass logic correcting those inputs. Against
// point-function defenses (SARLock, Anti-SAT) the disagreement set is a
// handful of patterns, so the bypass hardware is tiny.
//
// The attack is oracle-based: the patch table needs the *correct*
// responses at the disagreement points. Against an OraP chip those
// queries return locked-circuit responses and the patched design remains
// wrong — the same starvation as every other attack in this package.
//
// The enumeration runs on the SAT attack's cone-of-influence miter:
// inputs where two independent key copies can disagree over-approximate
// the inputs where the chosen key can be wrong (for point-function
// defenses the set is the same, and tight enumeration would need the
// correct key). Each pattern is blocked and patched on the key-support
// inputs only, since the other inputs reach no key-dependent output: one
// patch covers every completion of the pattern.
func Bypass(locked *netlist.Circuit, o oracle.Oracle, chosenKey []bool, opts BypassOptions) (*BypassResult, error) {
	if len(chosenKey) != locked.NumKeys() {
		return nil, fmt.Errorf("attack: chosen key width %d != %d", len(chosenKey), locked.NumKeys())
	}
	if opts.MaxPatches <= 0 {
		opts.MaxPatches = 64
	}
	m, err := newMiter(locked, o, opts.MaxConflicts)
	if err != nil {
		return nil, err
	}
	// Fix key copy 1 to the chosen key; copy 2 ranges over all keys, so
	// the miter enumerates every input where SOME key disagrees with the
	// chosen one — a superset of the inputs where the chosen key is
	// wrong.
	if err := cnf.ConstrainBits(m.S, m.Key1, chosenKey); err != nil {
		return nil, err
	}
	res := &BypassResult{
		Key:     append([]bool(nil), chosenKey...),
		Patches: make(map[string][]bool),
		support: m.Support,
		eval:    sim.EvaluatorFor(m.Prog),
	}
	defer func() {
		res.OracleQueries = o.Queries()
		res.Channel = channelStats(o)
	}()
	for {
		satisfiable, err := m.S.Solve(m.AssumeDiff())
		if err != nil {
			return res, err
		}
		if !satisfiable {
			break
		}
		if len(res.Patches) >= opts.MaxPatches {
			return res, fmt.Errorf("attack: bypass patch budget exhausted (%d patterns; defense is not point-like)", opts.MaxPatches)
		}
		x := m.ExtractInputs()
		y, err := oracle.Query(o, x)
		if err != nil {
			return res, err
		}
		// The patch flips the outputs on which the oracle disagrees with
		// the circuit under the chosen key.
		flip, err := res.eval.Eval(x, res.Key)
		if err != nil {
			return res, err
		}
		for j := range flip {
			flip[j] = flip[j] != y[j]
		}
		res.Patches[res.patchKey(x)] = flip
		// Block this pattern of the support inputs and continue enumerating.
		blocking := make([]sat.Lit, len(m.Support))
		for i, pi := range m.Support {
			blocking[i] = sat.MkLit(m.PIVars[pi], x[pi])
		}
		m.S.AddClause(blocking...)
	}
	return res, nil
}

// Eval evaluates the patched design: the locked circuit under the chosen
// key, with the patch for x's key-support pattern, if any, XORed onto the
// outputs. This is the functional view of the attacker's bypass hardware.
// It runs on the program the attack compiled; not safe for concurrent use.
func (b *BypassResult) Eval(x []bool) ([]bool, error) {
	y, err := b.eval.Eval(x, b.Key)
	if err != nil {
		return nil, err
	}
	if flip, ok := b.Patches[b.patchKey(x)]; ok {
		for j := range y {
			y[j] = y[j] != flip[j]
		}
	}
	return y, nil
}

// patchKey renders x's key-support inputs in the '0'/'1' form the patch
// table is keyed by.
func (b *BypassResult) patchKey(x []bool) string {
	out := make([]byte, len(b.support))
	for i, pi := range b.support {
		if x[pi] {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
