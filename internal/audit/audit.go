// Package audit is the security static analyzer: it asks whether a
// locked (and possibly OraP-protected) design leaks its key through the
// netlist or through the oracle path, and answers with typed findings
// that carry a rule ID, a severity, the offending gates or key bits and
// a reference to the attack literature that exploits the weakness.
//
// Where internal/check guards *structural* soundness (cycles, undriven
// nets, arity), audit guards *security*: the topology-guided attack
// (Zhang et al., arXiv:2006.05930) locates key gates by their local
// structure, and resynthesis-based attacks (Almeida et al.,
// arXiv:2301.04400) strip key logic that constant propagation can
// remove — both without ever touching an oracle. A configuration that
// fails the audit is broken before the first SAT query, so the analyzer
// runs as a preflight in orapbench and as a post-construction assertion
// in the lock and orap tests.
//
// Netlist rules (Analyze/Circuit):
//
//   - key-removable: per-key-bit constant propagation under both key
//     values. A key bit no primary output depends on is dead weight a
//     resynthesis pass strips (error; warning when the bit drives no
//     gate at all, mirroring check's dead-key-material policy), and a
//     gate that goes constant while a key-dependent signal feeds it
//     absorbs — and thereby removes — that key dependence (warning).
//   - key-fingerprint: key gates identifiable from local structure —
//     an XOR/XNOR spliced directly behind a key input (EPIC-style,
//     warning), a point-function comparator against primary inputs
//     (SARLock/Anti-SAT/TTLock-style, warning), or a weighted-locking
//     control cone (info). Each finding reports its anonymity set: how
//     many gates in the circuit share the fingerprint shape.
//   - low-corruptibility: a key bit whose fanout cone covers fewer
//     primary outputs than a threshold; a wrong guess at that bit is
//     almost never observed, which is what approximate attacks
//     (AppSAT) exploit. Warning.
//   - key-leak: a key bit that is linearly separable at a primary
//     output — the output provably flips with the bit under every
//     input pattern, so a single scan capture of the activated chip
//     reveals the bit. Warning.
//   - testability-bound: a gate whose SCOAP stuck-at detect difficulty
//     reaches 50; random patterns are unlikely to cover it, and
//     point-function locking hides exactly there. Info.
//
// The netlist rules read the analyses of internal/dataflow, each solved
// once per audit: dataflow.Pair drives key-removable and key-leak,
// KeyTaint drives low-corruptibility, and the SCOAP Controllability
// and Observability scores drive testability-bound. Explain
// reconstructs per-finding witness paths from the same results.
//
// Oracle-path rules (Oracle):
//
//   - oracle-unprotected: a conventional scan configuration — the key
//     register survives test mode and the whole oracle-guided attack
//     class applies. Error.
//   - key-entropy: the GF(2) rank of the memory-seed transfer matrix is
//     the number of key-register states reachable from tamper-proof
//     memory; rank below the nominal LFSR width shrinks the effective
//     keyspace accordingly (the scenario-(d) symbolic analysis run from
//     the defender's side). Error.
//   - zero-key: the stored key sequence unlocks the basic scheme to the
//     all-zero state — indistinguishable from a cleared register, so
//     the chip answers correctly in test mode and the protection is
//     void. Error.
//   - resp-taps: response-driven reseeding points sharing a flip-flop
//     tap; correlated injections shrink the scenario-(e) search space.
//     Warning.
//   - scan-layout: key cells bunched in the scan chains, cheapening the
//     scenario-(b) bypass-mux Trojan the Section III interleaving
//     countermeasure defends against. Warning.
package audit

import (
	"fmt"
	"strings"

	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// Rule IDs, in catalog order.
const (
	// RuleKeyRemovable: key logic that constant propagation removes —
	// an inert key bit (error; warning when it drives nothing) or a
	// gate that absorbs key dependence into a constant (warning).
	RuleKeyRemovable = "key-removable"
	// RuleKeyFingerprint: a key gate identifiable by local structure.
	// Warning for EPIC-style XOR splices and point-function
	// comparators, info for weighted control cones.
	RuleKeyFingerprint = "key-fingerprint"
	// RuleLowCorruptibility: a key bit whose cone covers fewer primary
	// outputs than the threshold. Warning.
	RuleLowCorruptibility = "low-corruptibility"
	// RuleKeyLeak: a key bit linearly separable at a primary output —
	// one oracle response reveals it. Warning.
	RuleKeyLeak = "key-leak"
	// RuleKeyEquivalence: the locked circuit under the stored key is
	// provably not equivalent to the original — the lock transform
	// corrupted the design. Emitted only by the symbolic KeyEquivalence
	// proof. Error.
	RuleKeyEquivalence = "key-equivalence"
	// RuleTestabilityBound: a gate whose SCOAP stuck-at detect
	// difficulty exceeds the threshold. Info.
	RuleTestabilityBound = "testability-bound"
	// RuleOracleUnprotected: conventional scan exposes the unlocked
	// core to the tester. Error.
	RuleOracleUnprotected = "oracle-unprotected"
	// RuleKeyEntropy: memory-seed transfer matrix rank below the
	// nominal LFSR width. Error.
	RuleKeyEntropy = "key-entropy"
	// RuleZeroKey: the key sequence unlocks to the all-zero (cleared)
	// state. Error.
	RuleZeroKey = "zero-key"
	// RuleRespTaps: response reseeding points share flip-flop taps.
	// Warning.
	RuleRespTaps = "resp-taps"
	// RuleScanLayout: consecutive key cells in a scan chain. Warning.
	RuleScanLayout = "scan-layout"
)

// Attack-literature references attached to findings.
const (
	// RefResynthesis: resynthesis-based attacks on logic locking,
	// Almeida et al., arXiv:2301.04400.
	RefResynthesis = "arXiv:2301.04400"
	// RefTopology: topology-guided attack, Zhang et al.,
	// arXiv:2006.05930.
	RefTopology = "arXiv:2006.05930"
	// RefOraP: the source paper (Kalligeros et al., DATE 2020) —
	// Section II for the oracle-path reasoning, Section III for the
	// Trojan scenarios (a)–(e) and their countermeasures.
	RefOraP = "OraP DATE'20"
)

// catalog lists the netlist rules in catalog order, the primary key of
// the canonical report sort. Oracle-path rules never mix with netlist
// findings in one report, and Oracle does not sort, so they need no
// place.
var catalog = []string{
	RuleKeyRemovable, RuleKeyFingerprint, RuleLowCorruptibility,
	RuleKeyLeak, RuleTestabilityBound, RuleKeyEquivalence,
}

// Report is the outcome of auditing one design or chip configuration:
// check's findings core (the circuit name, the findings in canonical
// order and the helpers over them) plus the audit's summaries.
type Report struct {
	check.Report
	// NominalEntropy and EffectiveEntropy are the LFSR width and the
	// GF(2) rank of its memory-seed transfer matrix; both zero for
	// netlist-only audits and for unprotected configurations.
	NominalEntropy   int
	EffectiveEntropy int
	// Exact holds the symbolic backend's per-key-bit model counts and
	// BDD telemetry when the audit ran with Options.Exact; nil
	// otherwise.
	Exact *ExactResult
}

// String renders the report one finding per line, prefixed with the
// circuit name, followed by the Trailer.
func (r *Report) String() string { return r.Report.String() + r.Trailer() }

// Trailer renders the summary lines String prints after the findings:
// the entropy summary and the exact backend's telemetry, each when
// computed.
func (r *Report) Trailer() string {
	var b strings.Builder
	if r.NominalEntropy > 0 {
		fmt.Fprintf(&b, "%s: effective key entropy %d of %d bits\n",
			r.Circuit, r.EffectiveEntropy, r.NominalEntropy)
	}
	if r.Exact != nil {
		fmt.Fprintf(&b, "%s: %s\n", r.Circuit, r.Exact.telemetry())
	}
	return b.String()
}

// Options tunes the netlist analyses.
type Options struct {
	// MinCorruptPOs is the low-corruptibility threshold: a key bit
	// whose fanout cone covers fewer primary outputs warns. 0 selects
	// the default min(2, numPOs) — a bit confined to a single output
	// of a multi-output circuit is flagged, single-output circuits
	// never are.
	MinCorruptPOs int
	// Exact enables the symbolic backend: per-key-bit ROBDD model
	// counts replace the structural bounds in low-corruptibility and
	// key-leak, and a bit whose exact corruption count is zero is
	// reported key-removable. Bits whose cones exceed the node budget
	// fall back to the dataflow bounds, recorded in the report's
	// telemetry.
	Exact bool
	// BDDBudget is the per-key-bit BDD node budget for Exact; 0 selects
	// bdd.DefaultBudget.
	BDDBudget int
}

// AnalyzeProgram audits a locked circuit compiled to its IR: key-gate
// removability, topology fingerprints and static corruptibility bounds.
// c supplies node names and source lines for the findings and must be
// the circuit prog was compiled from; ir.Compile enforces check's
// structural rules, so a structurally unsound circuit never reaches the
// audit. Unlocked circuits (no key inputs) produce an empty report.
func AnalyzeProgram(prog *ir.Program, c *netlist.Circuit, opts Options) *Report {
	rep := &Report{Report: check.Report{Circuit: c.Name}}
	if prog.NumKeys() == 0 {
		return rep
	}
	e := newEngine(prog)
	inert := removability(e, c, rep)
	var ex *ExactResult
	if opts.Exact {
		ex = exactAnalyze(prog, ExactOptions{NodeBudget: opts.BDDBudget})
		rep.Exact = ex
		exactRemovability(prog, c, rep, ex, inert)
	}
	fingerprints(prog, c, rep)
	corruptibility(e, c, rep, opts, inert, ex)
	keyLeaks(e, c, rep, ex)
	testabilityBound(e, c, rep)
	rep.Sort(catalog)
	return rep
}
