package audit

import (
	"orap/internal/check"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// engine bundles the dataflow fixpoints the audit rules share, so each
// domain is solved once per analysis: the key-taint sets (corruptibility
// coverage, witness paths), the SCOAP testability scores (key-leak
// detail, testability-bound) and the per-key-bit Anti witnesses the
// removability pass harvests for key-leak.
type engine struct {
	p     *ir.Program
	taint []dataflow.KeySet
	cc    []dataflow.ControlValue
	co    []int32
	// leaks lists, per key bit, the primary outputs that keep the pair
	// domain's Anti proof — the output provably flips with the bit.
	leaks [][]int32
}

// newEngine solves the shared domains for prog.
func newEngine(prog *ir.Program) *engine {
	e := &engine{p: prog}
	e.taint = dataflow.Run[dataflow.KeySet](prog, dataflow.NewKeyTaint(prog))
	e.cc = dataflow.Run[dataflow.ControlValue](prog, dataflow.NewControllability(prog))
	e.co = dataflow.Run[int32](prog, dataflow.NewObservability(prog, e.cc))
	return e
}

// keyLeaks emits the key-leak findings: a primary output whose value
// provably flips whenever the key bit flips, for every input pattern
// (the output computes f(x) XOR k up to inversion). On a conventional
// scan chain every core output is capture-observable, so a single
// response from the activated chip hands the attacker the bit by
// comparing against a simulation under either key value — the exact
// oracle-side leak OraP exists to block, and the reason the rule stays
// netlist-level: the oracle-path audit separately decides whether the
// scan channel is protected.
//
// Without the exact backend the evidence is the pair domain's Anti
// proof — sound (a flagged output really flips) but incomplete. With
// it (ex non-nil, bit within budget) the evidence is a BDD tautology
// check on XOR(F, F with the bit flipped), which misses nothing, and
// the finding reports the bit's exact distinguishing-input count.
func keyLeaks(e *engine, c *netlist.Circuit, rep *Report, ex *ExactResult) {
	p := e.p
	for kb, kid := range p.Keys {
		if ex != nil && ex.Bits[kb].OK {
			b := &ex.Bits[kb]
			for _, o := range b.LeakPOs {
				rep.Add(c, RuleKeyLeak, check.Warning, kb, int(o), RefOraP,
					"key bit %d (%q) is linearly separable at primary output %q: exact symbolic proof that the output flips with the bit for every (input, key) pair, so one scan capture of the activated chip reveals it (%v of %v input patterns distinguish the bit)",
					kb, c.NameOf(int(kid)), c.NameOf(int(o)), b.DistInputs, ex.piSpace())
			}
			continue
		}
		for _, o := range e.leaks[kb] {
			rep.Add(c, RuleKeyLeak, check.Warning, kb, int(o), RefOraP,
				"key bit %d (%q) is linearly separable at primary output %q: the output provably flips with the bit for every input pattern, so one scan capture of the activated chip reveals it (output controllability CC0/CC1 = %d/%d)",
				kb, c.NameOf(int(kid)), c.NameOf(int(o)), e.cc[o].CC0, e.cc[o].CC1)
		}
	}
}

// testabilityThreshold is the SCOAP detect-difficulty level at which
// testability-bound speaks up. SCOAP grows by at least 1 per logic
// level, so it only fires on structures markedly harder than the shipped
// reference circuits (wide point-function comparators, deep reconvergent
// cones).
const testabilityThreshold = 50

// testabilityBound emits the testability-bound findings: gates where
// the SCOAP difficulty of detecting a stuck-at fault — controllability
// of the value that excites the fault plus observability of the site —
// exceeds the threshold. Random-pattern fault simulation almost never
// covers such sites, which is both a test-quality problem and a place
// for SAT-resistant point functions to hide; the faultsim cross-check
// test pins the correlation.
func testabilityBound(e *engine, c *netlist.Circuit, rep *Report) {
	p := e.p
	for _, id32 := range p.Order {
		id := int(id32)
		switch p.Ops[id] {
		case ir.OpInput, ir.OpConst0, ir.OpConst1:
			continue
		}
		co := e.co[id]
		if co >= dataflow.Unreachable {
			continue // dead logic; check's dead-cone rule owns it
		}
		// Detecting stuck-at-1 needs the line driven to 0 (CC0 + CO),
		// stuck-at-0 needs it driven to 1 (CC1 + CO); report the harder
		// fault of the two.
		d0 := satScore(e.cc[id].CC0, co)
		d1 := satScore(e.cc[id].CC1, co)
		worst, stuck := d0, "stuck-at-1"
		if d1 > d0 {
			worst, stuck = d1, "stuck-at-0"
		}
		if worst < testabilityThreshold {
			continue
		}
		rep.Add(c, RuleTestabilityBound, check.Info, -1, id, RefOraP,
			"%v gate %q has SCOAP detect difficulty %d for %s (CC0/CC1=%d/%d, CO=%d, threshold %d); random patterns are unlikely to test it",
			p.Ops[id], c.NameOf(id), worst, stuck, e.cc[id].CC0, e.cc[id].CC1, co, testabilityThreshold)
	}
}

// satScore adds two SCOAP scores without leaving the lattice ceiling.
func satScore(a, b int32) int32 {
	s := a + b
	if s >= dataflow.Unreachable || a >= dataflow.Unreachable || b >= dataflow.Unreachable {
		return dataflow.Unreachable
	}
	return s
}

// PathStep is one node on an Explain witness path, annotated with the
// abstract values the engine proved there.
type PathStep struct {
	// Node, Name and Op identify the net.
	Node int
	Name string
	Op   ir.Op
	// V0/V1/Eq/Anti is the pair-domain value under the finding's key
	// bit (dataflow.Unknown for a value the lattice cannot pin).
	V0, V1   int8
	Eq, Anti bool
	// TaintBits is how many key bits structurally reach the net.
	TaintBits int
	// CC0/CC1/CO are the net's SCOAP scores.
	CC0, CC1, CO int32
}

// Explain reconstructs a witness path for a key-anchored finding: the
// chain of nets from the finding's key input to its anchor node, each
// step chosen along the key bit's taint (preferring fanins that keep
// the Anti or non-Eq pair proofs, so the path follows the actual
// difference propagation when one exists). Findings without both a key
// bit and a node — or whose node the key bit cannot reach — return nil.
// prog and c must be the pair the finding was produced from.
func Explain(prog *ir.Program, c *netlist.Circuit, f check.Finding) []PathStep {
	if f.KeyBit < 0 || f.KeyBit >= prog.NumKeys() || f.Node < 0 || f.Node >= prog.NumNodes() {
		return nil
	}
	e := newEngine(prog)
	kid := prog.Keys[f.KeyBit]
	// A one-key slice: lane 0 is the finding's key bit.
	vals := dataflow.Run[dataflow.PairPlanes](prog, dataflow.NewPair(prog, prog.Keys[f.KeyBit:f.KeyBit+1]))

	if int32(f.Node) != kid && !e.taint[f.Node].Has(f.KeyBit) {
		return nil
	}
	// Walk fanins from the anchor back to the key input; every tainted
	// node has a tainted fanin (or is the key input itself), and fanins
	// sit at strictly lower levels, so the walk terminates at kid.
	var rev []int32
	for cur := int32(f.Node); ; {
		rev = append(rev, cur)
		if cur == kid {
			break
		}
		next := int32(-1)
		var nextVal dataflow.PairValue
		for _, fi := range prog.FaninSpan(int(cur)) {
			if fi != kid && !e.taint[fi].Has(f.KeyBit) {
				continue
			}
			v := vals[fi].Lane(0)
			if next < 0 || rank(v) > rank(nextVal) {
				next, nextVal = fi, v
			}
		}
		if next < 0 {
			return nil // anchor not actually reachable from the bit
		}
		cur = next
	}

	steps := make([]PathStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		id := int(rev[i])
		v := vals[id].Lane(0)
		steps = append(steps, PathStep{
			Node: id, Name: c.NameOf(id), Op: prog.Ops[id],
			V0: v.V0, V1: v.V1, Eq: v.Eq, Anti: v.Anti,
			TaintBits: e.taint[id].Count(),
			CC0:       e.cc[id].CC0, CC1: e.cc[id].CC1, CO: e.co[id],
		})
	}
	return steps
}

// rank orders pair values by how much key difference they still carry,
// for picking the most informative fanin on a witness path.
func rank(v dataflow.PairValue) int {
	switch {
	case v.Anti:
		return 2
	case !v.Eq:
		return 1
	}
	return 0
}
