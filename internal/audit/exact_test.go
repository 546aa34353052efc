// Exactness cross-checks for the symbolic backend: every model count
// the -exact audit reports is re-derived by exhaustive enumeration on
// circuits small enough to sweep (≤ 14 inputs), the corruption rates
// are compared against faultsim-sampled stuck-at detection rates, and
// the budget-degradation path is pinned on a generated b19 slice.
package audit_test

import (
	"math/big"
	"strings"
	"testing"

	"orap/internal/audit"
	"orap/internal/benchgen"
	"orap/internal/circuits"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

// lockedCase builds one locked circuit next to its original.
type lockedCase struct {
	name string
	orig *netlist.Circuit
	l    *lock.Locked
}

// exactCases locks a spread of small circuits with every scheme shape
// the exact backend has to handle: XOR splices, weighted control
// cones, and point functions.
func exactCases(t *testing.T) []lockedCase {
	t.Helper()
	mk := func(name string, orig *netlist.Circuit, l *lock.Locked, err error) lockedCase {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return lockedCase{name, orig, l}
	}
	var cs []lockedCase
	{
		orig := circuits.RippleAdder(4)
		l, err := lock.RandomXOR(orig.Clone(), 3, rng.New(21))
		cs = append(cs, mk("rippleadder+randomxor", orig, l, err))
	}
	{
		orig := circuits.RippleAdder(4)
		l, err := lock.Weighted(orig.Clone(), lock.WeightedOptions{KeyBits: 4, ControlWidth: 3, Rand: rng.New(22)})
		cs = append(cs, mk("rippleadder+weighted", orig, l, err))
	}
	{
		orig := circuits.C17()
		l, err := lock.SARLock(orig.Clone(), 3, rng.New(23))
		cs = append(cs, mk("c17+sarlock", orig, l, err))
	}
	{
		orig := circuits.Comparator4()
		l, err := lock.TTLock(orig.Clone(), 3, rng.New(24))
		cs = append(cs, mk("comparator4+ttlock", orig, l, err))
	}
	return cs
}

// enumBit is the brute-force ground truth for one key bit.
type enumBit struct {
	corrupt int64   // (x, k) pairs where flipping the bit changes an output
	dist    int64   // x patterns with some distinguishing k
	sens    []int32 // POs flipped by some pair
	leak    []int32 // POs flipped by every pair
}

// enumerate sweeps the full (input, key) space once and derives every
// per-key-bit quantity the exact backend claims.
func enumerate(t *testing.T, c *netlist.Circuit) []enumBit {
	t.Helper()
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	nPI, nKey := len(prog.PIs), prog.NumKeys()
	nIn := nPI + nKey
	if nIn > 14 {
		t.Fatalf("%d inputs, harness expects ≤ 14", nIn)
	}
	// One output table over the whole space, then every bit's counts
	// come from table lookups instead of re-simulation.
	nPO := len(prog.POs)
	table := make([][]bool, 1<<uint(nIn))
	buf := make([]bool, nIn)
	for v := range table {
		for i := range buf {
			buf[i] = v>>uint(i)&1 == 1
		}
		out, err := prog.Eval(buf[:nPI], buf[nPI:])
		if err != nil {
			t.Fatal(err)
		}
		table[v] = append([]bool(nil), out...)
	}
	bits := make([]enumBit, nKey)
	for kb := range bits {
		flip := 1 << uint(nPI+kb)
		sens := make([]bool, nPO)
		leak := make([]bool, nPO)
		for i := range leak {
			leak[i] = true
		}
		distAt := make([]bool, 1<<uint(nPI))
		for v := range table {
			a, b := table[v], table[v^flip]
			anyDiff := false
			for j := range a {
				if a[j] != b[j] {
					anyDiff = true
					sens[j] = true
				} else {
					leak[j] = false
				}
			}
			if anyDiff {
				bits[kb].corrupt++
				distAt[v&(1<<uint(nPI)-1)] = true
			}
		}
		for _, d := range distAt {
			if d {
				bits[kb].dist++
			}
		}
		for j := 0; j < nPO; j++ {
			if sens[j] {
				bits[kb].sens = append(bits[kb].sens, prog.POs[j])
			}
			if leak[j] {
				bits[kb].leak = append(bits[kb].leak, prog.POs[j])
			}
		}
	}
	return bits
}

func eqIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExactMatchesEnumeration is the core exactness contract: on every
// locked case the symbolic CorruptCount, DistInputs, sensitized-PO set
// and tautology-leak set equal the exhaustive enumeration, and the
// rate is the count over the space.
func TestExactMatchesEnumeration(t *testing.T) {
	for _, tc := range exactCases(t) {
		prog, err := ir.Compile(tc.l.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep := audit.AnalyzeProgram(prog, tc.l.Circuit, audit.Options{Exact: true})
		ex := rep.Exact
		if ex == nil {
			t.Fatalf("%s: no exact result", tc.name)
		}
		want := enumerate(t, tc.l.Circuit)
		if len(ex.Bits) != len(want) {
			t.Fatalf("%s: %d exact bits, want %d", tc.name, len(ex.Bits), len(want))
		}
		space := new(big.Int).Lsh(big.NewInt(1), uint(ex.NumPIs+ex.NumKeys))
		for kb, w := range want {
			b := ex.Bits[kb]
			if !b.OK {
				t.Errorf("%s bit %d: budget fallback on a tiny circuit (%v)", tc.name, kb, b.Err)
				continue
			}
			if b.CorruptCount.Cmp(big.NewInt(w.corrupt)) != 0 {
				t.Errorf("%s bit %d: CorruptCount %v, enumeration %d", tc.name, kb, b.CorruptCount, w.corrupt)
			}
			if b.DistInputs.Cmp(big.NewInt(w.dist)) != 0 {
				t.Errorf("%s bit %d: DistInputs %v, enumeration %d", tc.name, kb, b.DistInputs, w.dist)
			}
			if b.SensPOs != len(w.sens) {
				t.Errorf("%s bit %d: SensPOs %d, enumeration %d", tc.name, kb, b.SensPOs, len(w.sens))
			}
			if !eqIDs(b.LeakPOs, w.leak) {
				t.Errorf("%s bit %d: LeakPOs %v, enumeration %v", tc.name, kb, b.LeakPOs, w.leak)
			}
			if b.SensPOs > b.ConePOs {
				t.Errorf("%s bit %d: exact %d sensitized POs above the structural bound %d", tc.name, kb, b.SensPOs, b.ConePOs)
			}
			wantRate, _ := new(big.Float).Quo(
				new(big.Float).SetInt(b.CorruptCount), new(big.Float).SetInt(space)).Float64()
			if diff := b.Rate - wantRate; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s bit %d: Rate %v, want %v", tc.name, kb, b.Rate, wantRate)
			}
		}
	}
}

// TestExactSARLockSignature pins lock.SARLock to its defining property
// through the exact backend, on a design too wide to enumerate and on a
// small one. With n key bits compared against the first n of P primary
// inputs, a wrong key k corrupts only the pattern whose compared bits
// equal k, and the correct key k* corrupts nothing. Flipping key bit b
// therefore changes the output for exactly the two keys x and x⊕e_b of
// every pattern x whose compared bits differ from k*:
// CorruptCount = 2·(2^n−1)·2^(P−n) and DistInputs = (2^n−1)·2^(P−n),
// on the one output the flip signal feeds.
func TestExactSARLockSignature(t *testing.T) {
	for _, tc := range []struct {
		profile string
		scale   float64
		keyBits int
	}{
		{"s38417", 0.02, 10},
		{"b20", 0.004, 8},
	} {
		prof, err := benchgen.ProfileByName(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := benchgen.Generate(prof.Scale(tc.scale), 2020)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lock.SARLock(orig, tc.keyBits, rng.New(51))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Compile(l.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		ex := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{Exact: true}).Exact
		if len(ex.Bits) != tc.keyBits {
			t.Fatalf("%s: %d exact bits, want %d", tc.profile, len(ex.Bits), tc.keyBits)
		}
		n, pis := uint(tc.keyBits), uint(len(prog.PIs))
		wantDist := new(big.Int).Lsh(big.NewInt(1<<n-1), pis-n)
		wantCorrupt := new(big.Int).Lsh(wantDist, 1)
		for kb, b := range ex.Bits {
			if !b.OK {
				t.Fatalf("%s bit %d: budget fallback (%v)", tc.profile, kb, b.Err)
			}
			if b.SensPOs != 1 || b.ConePOs != 1 {
				t.Errorf("%s bit %d: SensPOs %d, ConePOs %d, want 1 and 1", tc.profile, kb, b.SensPOs, b.ConePOs)
			}
			if b.CorruptCount.Cmp(wantCorrupt) != 0 {
				t.Errorf("%s bit %d: CorruptCount %v, want 2·(2^%d−1)·2^%d = %v", tc.profile, kb, b.CorruptCount, n, pis-n, wantCorrupt)
			}
			if b.DistInputs.Cmp(wantDist) != 0 {
				t.Errorf("%s bit %d: DistInputs %v, want (2^%d−1)·2^%d = %v", tc.profile, kb, b.DistInputs, n, pis-n, wantDist)
			}
		}
	}
}

// TestExactRandomXORDistinguishing pins the acceptance criterion for
// XOR-splice locking: every key bit of a random-XOR configuration must
// provably have at least one distinguishing input pattern — otherwise
// the bit would be unlearnable by any oracle and removable by
// resynthesis.
func TestExactRandomXORDistinguishing(t *testing.T) {
	for _, c := range []*netlist.Circuit{
		circuits.C17(),
		circuits.FullAdder(),
		circuits.RippleAdder(4),
		circuits.Parity(8),
		circuits.Comparator4(),
		circuits.Mux21(),
	} {
		l, err := lock.RandomXOR(c.Clone(), 3, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Compile(l.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{Exact: true})
		for kb, b := range rep.Exact.Bits {
			if !b.OK {
				t.Fatalf("%s bit %d: budget fallback on a tiny circuit", c.Name, kb)
			}
			if b.DistInputs.Sign() <= 0 {
				t.Errorf("%s bit %d: no distinguishing input (DistInputs %v)", c.Name, kb, b.DistInputs)
			}
		}
	}
}

// TestExactRateMatchesFaultsim ties the symbolic corruption rate to the
// testability world it refines: for a key input net, the probability a
// random (input, key) pattern detects stuck-at-0 plus the probability
// it detects stuck-at-1 is exactly the probability the outputs change
// when the bit flips — the exact Rate. The sampled sum must agree
// within Monte-Carlo tolerance.
func TestExactRateMatchesFaultsim(t *testing.T) {
	l, err := lock.Weighted(circuits.RippleAdder(4).Clone(), lock.WeightedOptions{
		KeyBits: 4, ControlWidth: 3, Rand: rng.New(41),
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{Exact: true})
	s, err := faultsim.ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 4096
	r := rng.New(42)
	pattern := make([]bool, len(prog.Inputs))
	hits := make([]int, prog.NumKeys())
	for n := 0; n < samples; n++ {
		r.Bits(pattern)
		for kb, kid := range prog.Keys {
			for _, sa1 := range []bool{false, true} {
				det, err := s.DetectsWithPattern(faultsim.Fault{Node: int(kid), Pin: -1, SA1: sa1}, pattern)
				if err != nil {
					t.Fatal(err)
				}
				if det {
					hits[kb]++
				}
			}
		}
	}
	for kb, b := range rep.Exact.Bits {
		if !b.OK {
			t.Fatalf("bit %d fell back on a tiny circuit", kb)
		}
		sampled := float64(hits[kb]) / samples
		// Bernoulli std dev over 4096 samples is ≤ 0.8%; 0.05 is > 6σ.
		if diff := sampled - b.Rate; diff > 0.05 || diff < -0.05 {
			t.Errorf("bit %d: faultsim-sampled rate %.4f, exact %.4f", kb, sampled, b.Rate)
		}
	}
}

// TestKeyEquivalenceAgainstEnumeration drives the symbolic equivalence
// proof with the stored key (must be clean for every locking scheme)
// and with each single-bit-corrupted key, where the verdict — and the
// exact set of disagreeing outputs — must match exhaustive simulation.
func TestKeyEquivalenceAgainstEnumeration(t *testing.T) {
	for _, tc := range exactCases(t) {
		rep, err := audit.KeyEquivalence(tc.l.Circuit, tc.orig, tc.l.Key, audit.ExactOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.HasErrors() {
			t.Fatalf("%s: stored key not proven equivalent:\n%s", tc.name, rep)
		}
		for kb := range tc.l.Key {
			wrong := append([]bool(nil), tc.l.Key...)
			wrong[kb] = !wrong[kb]
			rep, err := audit.KeyEquivalence(tc.l.Circuit, tc.orig, wrong, audit.ExactOptions{})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got := make(map[int]bool)
			for _, f := range rep.ByRule(audit.RuleKeyEquivalence) {
				got[f.Node] = true
			}
			want := wrongKeyMismatchPOs(t, tc.orig, tc.l.Circuit, wrong)
			if len(got) != len(want) {
				t.Fatalf("%s bit %d flipped: %d mismatching POs reported, enumeration %d\n%s",
					tc.name, kb, len(got), len(want), rep)
			}
			for id := range want {
				if !got[id] {
					t.Errorf("%s bit %d flipped: PO node %d mismatches in enumeration but not in the proof", tc.name, kb, id)
				}
			}
		}
	}
}

// wrongKeyMismatchPOs enumerates the primary inputs and returns the
// locked-circuit PO node IDs whose value differs from the original
// under the given key, for any input.
func wrongKeyMismatchPOs(t *testing.T, orig, locked *netlist.Circuit, key []bool) map[int]bool {
	t.Helper()
	lp, err := ir.Compile(locked)
	if err != nil {
		t.Fatal(err)
	}
	nPI := len(lp.PIs)
	out := make(map[int]bool)
	in := make([]bool, nPI)
	for v := 0; v < 1<<uint(nPI); v++ {
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		want, err := sim.Eval(orig, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Eval(locked, in, key)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if want[j] != got[j] {
				out[int(lp.POs[j])] = true
			}
		}
	}
	return out
}

// BenchmarkExactCorrupt measures the full exact audit — cone
// compilation once per cone group, per-bit corruption model counting
// and distinguishing-input quantification — on the same weighted-locked
// b20 slice BenchmarkBDDCompile compiles. Runs in the bench-smoke CI
// leg; the fallbacks metric must stay 0 at this scale, so a budget
// regression fails loudly.
func BenchmarkExactCorrupt(b *testing.B) {
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		b.Fatal(err)
	}
	scaled := prof.Scale(0.004)
	circuit, err := benchgen.Generate(scaled, 2020)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits: 16, ControlWidth: 3, Rand: rng.New(2020),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := ir.Compile(l.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{Exact: true})
		if rep.Exact.Stats.Fallbacks > 0 {
			b.Fatalf("budget fallbacks at benchmark scale: %s", rep.Trailer())
		}
		b.ReportMetric(float64(rep.Exact.Stats.Nodes), "nodes")
	}
}

// TestExactBudgetFallbackScaledB19 is the degradation regression: a
// generated b19 slice audited with a starved BDD budget must complete,
// report the fallbacks in the telemetry, and produce exactly the
// findings of the plain dataflow audit — graceful degradation, never a
// crash or a dropped rule.
func TestExactBudgetFallbackScaledB19(t *testing.T) {
	prof, err := benchgen.ProfileByName("b19")
	if err != nil {
		t.Fatal(err)
	}
	scaled := prof.Scale(0.05)
	circuit, err := benchgen.Generate(scaled, 2020)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits: 24, ControlWidth: scaled.CtrlInputs, Rand: rng.New(2020),
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	plain := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{})
	exact := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{Exact: true, BDDBudget: 8})
	ex := exact.Exact
	if ex == nil || ex.Stats.Fallbacks == 0 {
		t.Fatalf("an 8-node budget produced no fallbacks: %+v", ex.Stats)
	}
	for _, b := range ex.Bits {
		if !b.OK && b.Err == nil {
			t.Errorf("bit %d fell back without a recorded cause", b.Bit)
		}
	}
	if !strings.Contains(exact.String(), "budget fallbacks") {
		t.Fatalf("telemetry line missing from the report:\n%s", exact.String())
	}
	if len(plain.Findings) != len(exact.Findings) {
		t.Fatalf("degraded exact audit changed the finding set: %d vs %d plain",
			len(exact.Findings), len(plain.Findings))
	}
	for i := range plain.Findings {
		if plain.Findings[i] != exact.Findings[i] {
			t.Errorf("finding %d differs under degradation:\nplain: %s\nexact: %s",
				i, plain.Findings[i], exact.Findings[i])
		}
	}
}
