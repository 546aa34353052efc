package audit

import (
	"fmt"
	"math/big"
	"slices"
	"sort"

	"orap/internal/bdd"
	"orap/internal/check"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// The exact backend upgrades three dataflow bounds to model-counted
// verdicts by compiling each key bit's corruption cone to a ROBDD
// (internal/bdd) and counting models instead of propagating lattice
// values:
//
//   - low-corruptibility: the structural cone bound "at most N outputs"
//     becomes the exact count of outputs some (input, key) pair really
//     flips, plus the corruption *rate* — the fraction of (input, key)
//     pairs on which a wrong guess at the bit is observable at all.
//   - key-leak: the pair domain's Anti flag (sound but incomplete)
//     becomes a tautology check on XOR(F, F|bit flipped) per output,
//     with the exact distinguishing-input count per key bit.
//   - key-removable: a bit whose exact corruption count is zero is
//     provably inert even when two-valued constant propagation cannot
//     see it.
//
// Each key bit is analyzed over its cone — the primary outputs its
// taint reaches — with BDD variables for just the inputs in the cone's
// union support. Bits with the same cone share one compile: one
// Manager serves the whole analysis, Reset per cone group, and each
// bit's operations run on top of a Mark of the compiled cone and are
// rolled back after the bit. Hash-consing makes the nodes a
// computation creates independent of what ran before it, so every bit
// gets the node count and budget verdict of a fresh Manager holding
// its cone and its own work: one exponential cone only sinks its own
// bits. A bdd.ErrBudget trip degrades a bit to the dataflow bound (OK
// = false, Fallbacks counted in the telemetry) and every other bit
// stays exact. Counts over the restricted support scale to the full
// (input, key) space by shifting: every input outside the support
// doubles both the model count and the space, so rates are unchanged
// and counts shift left by the number of free inputs.

// ExactOptions tunes the symbolic backend.
type ExactOptions struct {
	// NodeBudget is the per-key-bit BDD node budget, covering the bit's
	// cone compile and its own operations; 0 selects bdd.DefaultBudget.
	NodeBudget int
}

// ExactKeyBit is the symbolic verdict for one key bit. The model
// counts are only meaningful when OK is true; a bit that tripped the
// node budget reports OK = false with nil counts and the audit falls
// back to the structural bound for it.
type ExactKeyBit struct {
	// Bit is the key-bit index.
	Bit int
	// OK reports whether the symbolic analysis completed within the
	// node budget.
	OK bool
	// Err records why the bit fell back (wraps bdd.ErrBudget on a
	// budget trip); nil when OK.
	Err error
	// ConePOs is the structural bound: primary outputs in the bit's
	// transitive fanout cone. SensPOs is the exact refinement: outputs
	// some (input, key) pair actually flips. SensPOs <= ConePOs always.
	ConePOs int
	SensPOs int
	// SupportVars is the number of circuit inputs (PIs and key bits) in
	// the cone's union support — the BDD variable count for this bit.
	SupportVars int
	// CorruptCount is |{(x, k) : F(x, k) != F(x, k xor e_bit)}| over
	// the full primary-input × key space; Rate is the same quantity as
	// a fraction of that space.
	CorruptCount *big.Int
	Rate         float64
	// DistInputs counts primary-input patterns x for which some key k
	// makes the outputs differ between k and k xor e_bit — the
	// distinguishing inputs an oracle-guided attack needs to exist.
	DistInputs *big.Int
	// LeakPOs lists primary outputs whose diff function is a tautology:
	// the output flips with the bit for every (input, key) pair, the
	// exact form of the key-leak rule.
	LeakPOs []int32
}

// ExactStats aggregates the BDD telemetry for the audit report, the
// same way ChannelStats surfaces oracle-channel counters. Nodes sums
// each key bit's node count: its cone's compile plus its own
// operations, what a fresh Manager per bit would hold.
type ExactStats struct {
	bdd.Stats
	// PeakNodes is the largest node count of a single key bit.
	PeakNodes int
	// Fallbacks counts key bits that exceeded the budget and degraded
	// to the dataflow bound.
	Fallbacks int
}

// ExactResult is the full symbolic outcome attached to a Report when
// the audit runs with Options.Exact.
type ExactResult struct {
	// Bits holds one verdict per key bit, indexed by key-bit number.
	Bits []ExactKeyBit
	// NumPIs and NumKeys size the spaces the counts range over:
	// CorruptCount over 2^(NumPIs+NumKeys), DistInputs over 2^NumPIs.
	NumPIs, NumKeys int
	Stats           ExactStats
}

// piSpace returns 2^NumPIs, the input-pattern space DistInputs counts
// against.
func (r *ExactResult) piSpace() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(r.NumPIs))
}

// telemetry renders the one-line BDD summary printed with the report.
func (r *ExactResult) telemetry() string {
	return fmt.Sprintf("exact: %d/%d key bits symbolic (%d budget fallbacks); bdd %d nodes total, peak %d of %d budget, ite cache %.1f%% hits",
		len(r.Bits)-r.Stats.Fallbacks, len(r.Bits), r.Stats.Fallbacks,
		r.Stats.Nodes, r.Stats.PeakNodes, r.Stats.Budget, 100*r.Stats.HitRate())
}

// exactAnalyze runs the symbolic backend over every key bit of prog.
func exactAnalyze(prog *ir.Program, opts ExactOptions) *ExactResult {
	budget := opts.NodeBudget
	if budget <= 0 {
		budget = bdd.DefaultBudget
	}
	// One all-inputs taint sweep gives every node's exact structural
	// support: PI bits first, key bits after (the p.Inputs layout).
	support := dataflow.Run[dataflow.KeySet](prog, dataflow.NewInputTaint(prog, prog.Inputs))
	rank := make(map[int32]int, len(prog.Inputs))
	for r, id := range bdd.InputOrder(prog) {
		rank[id] = r
	}
	res := &ExactResult{
		Bits:    make([]ExactKeyBit, prog.NumKeys()),
		NumPIs:  len(prog.PIs),
		NumKeys: prog.NumKeys(),
	}
	res.Stats.Budget = budget

	// Group the key bits by cone, the POs their taint reaches, in order
	// of each group's first bit. The support is a function of the cone.
	var groups []coneGroup
	byCone := make(map[string]int)
	for kb := range prog.Keys {
		idx := len(prog.PIs) + kb // the bit's tracked-input index
		var cone []int32
		for _, o := range prog.POs {
			if support[o].Has(idx) {
				cone = append(cone, o)
			}
		}
		if len(cone) == 0 {
			// Structurally inert: the exact counts are trivially zero and
			// no BDD is needed.
			res.Bits[kb] = ExactKeyBit{Bit: kb, OK: true, CorruptCount: new(big.Int), DistInputs: new(big.Int)}
			continue
		}
		key := fmt.Sprint(cone)
		g, ok := byCone[key]
		if !ok {
			g = len(groups)
			byCone[key] = g
			groups = append(groups, coneGroup{cone: cone})
		}
		groups[g].bits = append(groups[g].bits, kb)
	}
	m := bdd.New(0, budget)
	for _, g := range groups {
		exactGroup(m, prog, support, rank, g, res)
	}
	return res
}

// coneGroup is the key bits whose taint reaches the same primary
// outputs.
type coneGroup struct {
	cone []int32 // the outputs, in declaration order
	bits []int
}

// exactGroup analyzes one cone group on m: it compiles every cone
// output once, marks the diagram, and runs each bit's operations on
// top, rolling back after the bit.
func exactGroup(m *bdd.Manager, p *ir.Program, support []dataflow.KeySet, rank map[int32]int, g coneGroup, res *ExactResult) {
	// Union the cone's input support and order it by the global
	// ranking, so the restricted variable order is the global one with
	// the absent inputs deleted.
	inSup := make([]bool, len(p.Inputs))
	for _, o := range g.cone {
		for _, i := range support[o].Bits() {
			inSup[i] = true
		}
	}
	var sup []int
	for i, in := range inSup {
		if in {
			sup = append(sup, i)
		}
	}
	sort.Slice(sup, func(a, b int) bool { return rank[p.Inputs[sup[a]]] < rank[p.Inputs[sup[b]]] })
	keyVars := make([]bool, len(sup)) // levels bound to key inputs
	piInSup := 0
	for v, i := range sup {
		keyVars[v] = i >= len(p.PIs)
		if !keyVars[v] {
			piInSup++
		}
	}

	m.Reset(len(sup))
	cp := bdd.NewCompiler(m, p)
	fs := make([]bdd.Node, len(g.cone))
	err := func() error {
		for v, i := range sup {
			if err := cp.BindVar(p.Inputs[i], v); err != nil {
				return err
			}
		}
		for j, o := range g.cone {
			var err error
			if fs[j], err = cp.Compile(o); err != nil {
				return err
			}
		}
		return nil
	}()
	mark := m.Mark()
	var nodes int
	for _, kb := range g.bits {
		b := ExactKeyBit{Bit: kb, Err: err, ConePOs: len(g.cone), SupportVars: len(sup)}
		if err == nil {
			// Count into a copy, so a trip midway leaves no partial
			// counts behind.
			counted := b
			kbVar := slices.Index(sup, len(p.PIs)+kb)
			if b.Err = bitCounts(m, p, &counted, g.cone, fs, kbVar, keyVars, piInSup); b.Err == nil {
				b = counted
				b.OK = true
			}
		}
		if !b.OK {
			// A budget trip (or any symbolic failure) in the cone compile,
			// which is part of every bit's work, or in the bit's own
			// operations: the bit degrades to the dataflow bound.
			res.Stats.Fallbacks++
		}
		res.Bits[kb] = b
		n := m.Stats().Nodes // before the Rollback deletes the bit's work
		nodes += n
		res.Stats.PeakNodes = max(res.Stats.PeakNodes, n)
		m.Rollback(mark)
	}
	st := m.Stats() // the group's cache counters
	st.Nodes = nodes
	res.Stats.Add(st)
}

// bitCounts computes the exact counts of the key bit at level kbVar
// into b, from its cone's compiled outputs fs. keyVars marks the key
// levels; piInSup of the support's inputs are primary inputs.
func bitCounts(m *bdd.Manager, p *ir.Program, b *ExactKeyBit, cone []int32, fs []bdd.Node, kbVar int, keyVars []bool, piInSup int) error {
	diff := bdd.False
	for j, f := range fs {
		fl, err := m.Flip(f, kbVar)
		if err != nil {
			return err
		}
		d, err := m.Xor(f, fl)
		if err != nil {
			return err
		}
		if d != bdd.False {
			b.SensPOs++
		}
		if d == bdd.True {
			b.LeakPOs = append(b.LeakPOs, cone[j])
		}
		if diff, err = m.Or(diff, d); err != nil {
			return err
		}
	}
	// Scale from the support space to the full (input, key) space: each
	// of the inputs outside the support doubles count and space alike,
	// so the rate is the count over the support space.
	nv := m.NumVars()
	cnt := m.SatCount(diff)
	b.CorruptCount = new(big.Int).Lsh(cnt, uint(len(p.Inputs)-nv))
	space := new(big.Float).SetMantExp(big.NewFloat(1), nv)
	b.Rate, _ = new(big.Float).Quo(new(big.Float).SetInt(cnt), space).Float64()
	// Distinguishing inputs: quantify the key variables out of the diff,
	// then count over the PI variables only. SatCount still treats the
	// quantified levels as free, so divide them back out (exact — the
	// function no longer depends on them) and scale up by the PIs
	// outside the support.
	ex, err := m.Exists(diff, keyVars)
	if err != nil {
		return err
	}
	di := new(big.Int).Rsh(m.SatCount(ex), uint(nv-piInSup))
	b.DistInputs = di.Lsh(di, uint(len(p.PIs)-piInSup))
	return nil
}

// exactRemovability emits the key-removable errors only the exact
// backend can see: bits whose corruption model count is zero although
// two-valued constant propagation could not prove any output
// independent. Such a bit is as removable as a dataflow-inert one, so
// it is also marked inert for the downstream corruptibility rule.
func exactRemovability(p *ir.Program, c *netlist.Circuit, rep *Report, ex *ExactResult, inert []bool) {
	for kb, kid := range p.Keys {
		b := &ex.Bits[kb]
		if !b.OK || inert[kb] || b.CorruptCount.Sign() != 0 {
			continue
		}
		inert[kb] = true
		rep.Add(c, RuleKeyRemovable, check.Error, kb, int(kid), RefResynthesis,
			"exact model count: no (input, key) pair flips any primary output when key bit %d (%q) flips; the bit's key logic is removable even though constant propagation cannot prove it",
			kb, c.NameOf(int(kid)))
	}
}

// KeyEquivalence symbolically proves that the locked circuit under the
// provided key computes the same function as the original: every
// primary output pair compiles to one shared Manager (keys bound to
// the stored constants), where hash-consing makes equivalence a node
// identity check. A mismatching output produces a key-equivalence
// error finding carrying the exact count of disagreeing input patterns
// and a witness pattern. The circuits correspond positionally: PI i of
// locked is PI i of original, likewise the POs. Returns a non-nil
// error — matching errors.Is(err, bdd.ErrBudget) — when the proof
// exceeds the node budget, so callers can skip rather than misreport.
func KeyEquivalence(locked, original *netlist.Circuit, key []bool, opts ExactOptions) (*Report, error) {
	lp, err := ir.Compile(locked)
	if err != nil {
		return nil, fmt.Errorf("audit: locked circuit: %w", err)
	}
	op, err := ir.Compile(original)
	if err != nil {
		return nil, fmt.Errorf("audit: original circuit: %w", err)
	}
	if lp.NumKeys() != len(key) {
		return nil, fmt.Errorf("audit: key has %d bits, locked circuit has %d key inputs", len(key), lp.NumKeys())
	}
	if op.NumKeys() != 0 {
		return nil, fmt.Errorf("audit: original circuit has %d key inputs, want 0", op.NumKeys())
	}
	if len(lp.PIs) != len(op.PIs) || len(lp.POs) != len(op.POs) {
		return nil, fmt.Errorf("audit: interface mismatch: locked has %d PIs/%d POs, original %d/%d",
			len(lp.PIs), len(lp.POs), len(op.PIs), len(op.POs))
	}

	// Shared variable order over the primary inputs, seeded from the
	// locked program's level-monotone order; the keys become constants.
	piIdx := make(map[int32]int, len(lp.PIs))
	for i, id := range lp.PIs {
		piIdx[id] = i
	}
	level := make([]int, len(lp.PIs)) // PI index -> BDD level
	v := 0
	for _, id := range bdd.InputOrder(lp) {
		if i, ok := piIdx[id]; ok {
			level[i] = v
			v++
		}
	}
	m := bdd.New(len(lp.PIs), opts.NodeBudget)
	cpl := bdd.NewCompiler(m, lp)
	cpo := bdd.NewCompiler(m, op)
	for i := range lp.PIs {
		if err := cpl.BindVar(lp.PIs[i], level[i]); err != nil {
			return nil, err
		}
		if err := cpo.BindVar(op.PIs[i], level[i]); err != nil {
			return nil, err
		}
	}
	for kb, kid := range lp.Keys {
		cpl.BindConst(kid, key[kb])
	}

	rep := &Report{Report: check.Report{Circuit: locked.Name}}
	for j := range lp.POs {
		fl, err := cpl.Compile(lp.POs[j])
		if err != nil {
			return nil, fmt.Errorf("audit: key-equivalence proof for output %q: %w", locked.NameOf(int(lp.POs[j])), err)
		}
		fo, err := cpo.Compile(op.POs[j])
		if err != nil {
			return nil, fmt.Errorf("audit: key-equivalence proof for output %q: %w", original.NameOf(int(op.POs[j])), err)
		}
		if fl == fo {
			continue // canonical form: identical node is a proof
		}
		d, err := m.Xor(fl, fo)
		if err != nil {
			return nil, fmt.Errorf("audit: key-equivalence diff for output %q: %w", locked.NameOf(int(lp.POs[j])), err)
		}
		cnt := m.SatCount(d)
		// Render the witness over the PIs in declaration order;
		// don't-care positions stay '-'.
		w := m.AnySat(d)
		pat := make([]byte, len(lp.PIs))
		for i := range pat {
			switch w[level[i]] {
			case 0:
				pat[i] = '0'
			case 1:
				pat[i] = '1'
			default:
				pat[i] = '-'
			}
		}
		rep.Add(locked, RuleKeyEquivalence, check.Error, -1, int(lp.POs[j]), RefOraP,
			"primary output %q disagrees with the original for %v of %v input patterns under the stored key (witness %s over the PIs in declaration order); the lock transform corrupted the design",
			locked.NameOf(int(lp.POs[j])), cnt, new(big.Int).Lsh(big.NewInt(1), uint(len(lp.PIs))), pat)
	}
	rep.Sort(catalog)
	return rep, nil
}
