// Package vet implements the repository's own static analyzer: the
// cross-package invariants the compiler cannot check but the
// experiments and the threat model depend on. cmd/orapvet is a thin
// driver over this package.
//
// Two layers of rules run over one shared load of the module
// (./internal/... and ./cmd/..., parsed and typechecked with go/types):
//
// Syntactic and type-resolved rules, one function or file at a time:
//
//	norand        no math/rand in internal/ (use internal/rng)
//	nowalltime    no time.Now / time.Since in internal/
//	irmutate      no ir.Program field writes outside internal/ir
//	shortrace     goroutine-spawning tests must not skip under -short
//	deadexport    no exported internal/ func without a reference from
//	              outside its package (tests, examples/ and nested
//	              modules such as perfbench/ count)
//
// And the interprocedural secret-flow engine behind nosecret: the
// module's call graph is built over go/types (direct calls, method
// calls on concrete types, closures), and per-function taint summaries
// — which parameters, receivers and results carry key material — are
// computed to a fixpoint, so a key bit that travels through a helper
// call, a struct field or a closure capture is still caught at the
// print. This is the codebase-level mirror of the paper's argument:
// the oracle's key material is the asset, and a key that leaks into a
// log through one level of indirection is as gone as one read off an
// unprotected scan chain.
//
//	sources     scan.Config.Key and any key-named []bool field or
//	            variable; gf2.Vec values (type-based); lfsr state and
//	            any struct embedding either (scan.Chip, lock.Locked, …)
//	sanitizers  internal/redact formatters (//vet:sanitizer directive,
//	            or any function in an internal/redact package)
//	sinks       the fmt and log print families, os.Stdout/os.Stderr
//	            writes, and struct values whose fields embed a source
//
// Findings from the flow engine carry a witness chain — source,
// intermediate calls, sink, each with a position — mirroring
// orapaudit -explain's key-to-anchor witness paths.
package vet

import (
	"fmt"
	"go/token"
	"sort"
)

// Rule IDs, stable across releases: findings, tests and the -json
// report all key on them.
const (
	// RuleNoRand: internal/ packages must use internal/rng, never
	// math/rand, so every simulation result is reproducible from a seed.
	RuleNoRand = "norand"
	// RuleNoWallTime: internal/ packages must not read the wall clock
	// (time.Now, time.Since); timing belongs to the cmd/ layer.
	RuleNoWallTime = "nowalltime"
	// RuleIRMutate: ir.Program is immutable after Compile; no package
	// outside internal/ir may write its fields or their elements.
	RuleIRMutate = "irmutate"
	// RuleShortRace: a test that spawns goroutines must not gate itself
	// on testing.Short, because the -race CI leg runs with -short and
	// would silently skip exactly the tests the race detector is for.
	RuleShortRace = "shortrace"
	// RuleDeadExport: an exported package-level func of an internal/
	// package that another package imports must be referred to from
	// outside that package — production code, another package's tests,
	// examples/ or a nested module such as perfbench/. Its own tests do
	// not count: exported API needs a caller, or it is deleted (or
	// unexported, when its own package still uses it).
	RuleDeadExport = "deadexport"
	// RuleNoSecret: no path in internal/ may carry raw key material to
	// an output sink — the fmt/log print families, process streams, or
	// a whole-struct print of a key-holding value. Keys reach logs only
	// through internal/redact. fmt.Errorf is exempt: error values carry
	// key detail up to the caller, they are not output.
	RuleNoSecret = "nosecret"
)

// Severity ranks a finding. Errors are invariant violations that make
// results wrong or leak key material; warnings are hygiene findings
// (today only shortrace). The orapvet exit-code convention (0 clean,
// 1 errors, 2 internal, 3 warnings only) keys on this, matching
// orapaudit.
type Severity int

const (
	SevWarning Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// severityOf maps a rule to its severity.
func severityOf(rule string) Severity {
	if rule == RuleShortRace {
		return SevWarning
	}
	return SevError
}

// Hop is one step of a secret-flow witness chain: the source where key
// material entered the flow, each call it crossed, and the sink.
type Hop struct {
	Kind string // "source", "call" or "sink"
	Desc string // e.g. `field Key of scan.Config`, `emit(b)`, `fmt.Println`
	Pos  token.Position
}

// Finding is one rule violation at one source position. Secret-flow
// findings additionally carry the witness chain that proves the leak.
type Finding struct {
	Pos   token.Position
	Rule  string
	Sev   Severity
	Msg   string
	Chain []Hop
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyze loads the module rooted at modRoot (with module path modPath)
// and runs every rule, returning the sorted findings. The error reports
// the first parse or typecheck failure; rules still run over the
// packages that loaded.
func Analyze(modRoot, modPath string) ([]Finding, error) {
	a := newAnalyzer(modRoot, modPath)
	firstErr := a.loadAll()
	for _, p := range a.loaded() {
		a.vetPackage(p)
	}
	a.ruleDeadExport()
	a.runTaint()
	sortFindings(a.findings)
	return a.findings, firstErr
}

// sortFindings orders findings by file, line, rule, message — the
// stable order the text and JSON reports print and the tests pin.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}
