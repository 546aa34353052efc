package audit

import (
	"fmt"
	"math/big"
	"sort"
	"testing"

	"orap/internal/bdd"
	"orap/internal/benchgen"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/rng"
)

// exactAnalyzeRef is the per-bit backend that the cone-grouped
// exactAnalyze replaced, kept as its reference: one fresh Manager per
// key bit, which compiles the bit's cone and runs the bit's operations.
func exactAnalyzeRef(prog *ir.Program, budget int) *ExactResult {
	if budget <= 0 {
		budget = bdd.DefaultBudget
	}
	support := dataflow.InputTaint(prog, prog.Inputs)
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
	for kb := range prog.Keys {
		bit, st := exactBit(prog, support, rank, kb, budget)
		res.Bits[kb] = bit
		res.Stats.Add(st)
		res.Stats.Budget = budget
		if st.Nodes > res.Stats.PeakNodes {
			res.Stats.PeakNodes = st.Nodes
		}
		if !bit.OK {
			res.Stats.Fallbacks++
		}
	}
	return res
}

// bitSupport returns the cone of key bit kb (the POs its taint reaches)
// and the cone's input support in variable order.
func bitSupport(p *ir.Program, support []dataflow.KeySet, rank map[int32]int, kb int) (cone []int32, sup []int) {
	idx := len(p.PIs) + kb
	for _, o := range p.POs {
		if support[o].Has(idx) {
			cone = append(cone, o)
		}
	}
	inSup := make([]bool, len(p.Inputs))
	for _, o := range cone {
		for _, i := range support[o].Bits() {
			inSup[i] = true
		}
	}
	for i, in := range inSup {
		if in {
			sup = append(sup, i)
		}
	}
	sort.Slice(sup, func(a, b int) bool { return rank[p.Inputs[sup[a]]] < rank[p.Inputs[sup[b]]] })
	return cone, sup
}

// exactBit analyzes one key bit on a fresh Manager restricted to the
// bit's cone, returning the verdict and the Manager's telemetry.
func exactBit(p *ir.Program, support []dataflow.KeySet, rank map[int32]int, kb, budget int) (ExactKeyBit, bdd.Stats) {
	out := ExactKeyBit{Bit: kb}
	idx := len(p.PIs) + kb
	cone, sup := bitSupport(p, support, rank, kb)
	out.ConePOs = len(cone)
	if len(cone) == 0 {
		out.OK = true
		out.CorruptCount = new(big.Int)
		out.DistInputs = new(big.Int)
		return out, bdd.Stats{}
	}
	out.SupportVars = len(sup)

	m := bdd.New(len(sup), budget)
	cp := bdd.NewCompiler(m, p)
	kbVar := -1
	keyVars := make([]bool, len(sup))
	piInSup := 0
	err := func() error {
		for v, i := range sup {
			if err := cp.BindVar(p.Inputs[i], v); err != nil {
				return err
			}
			if i >= len(p.PIs) {
				keyVars[v] = true
				if i == idx {
					kbVar = v
				}
			} else {
				piInSup++
			}
		}
		diff := bdd.False
		for _, o := range cone {
			f, err := cp.Compile(o)
			if err != nil {
				return err
			}
			d, err := m.Diff(f, kbVar)
			if err != nil {
				return err
			}
			if d != bdd.False {
				out.SensPOs++
			}
			if d == bdd.True {
				out.LeakPOs = append(out.LeakPOs, o)
			}
			if diff, err = m.Or(diff, d); err != nil {
				return err
			}
		}
		freeAll := uint(len(p.Inputs) - len(sup))
		out.CorruptCount = new(big.Int).Lsh(m.SatCount(diff), freeAll)
		// The rate counts diff a second time, as the per-bit backend did.
		cnt := new(big.Float).SetInt(m.SatCount(diff))
		space := new(big.Float).SetMantExp(big.NewFloat(1), m.NumVars())
		out.Rate, _ = new(big.Float).Quo(cnt, space).Float64()
		ex, err := m.Exists(diff, keyVars)
		if err != nil {
			return err
		}
		di := new(big.Int).Rsh(m.SatCount(ex), uint(len(sup)-piInSup))
		out.DistInputs = di.Lsh(di, uint(len(p.PIs)-piInSup))
		return nil
	}()
	if err != nil {
		out.Err = err
		out.SensPOs = 0
		out.LeakPOs = nil
		out.CorruptCount, out.DistInputs = nil, nil
		out.Rate = 0
		return out, m.Stats()
	}
	out.OK = true
	return out, m.Stats()
}

// coneCompileNodes returns the nodes that compiling key bit kb's cone
// takes on its own, before any of the bit's operations.
func coneCompileNodes(t *testing.T, p *ir.Program, support []dataflow.KeySet, rank map[int32]int, kb int) int {
	t.Helper()
	cone, sup := bitSupport(p, support, rank, kb)
	m := bdd.New(len(sup), 0)
	cp := bdd.NewCompiler(m, p)
	for v, i := range sup {
		if err := cp.BindVar(p.Inputs[i], v); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range cone {
		if _, err := cp.Compile(o); err != nil {
			t.Fatal(err)
		}
	}
	return m.Stats().Nodes
}

// lockB20 locks a b20@0.004 instance with 12 key bits under scheme.
func lockB20(t *testing.T, scheme string, seed uint64) *ir.Program {
	t.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchgen.Generate(prof.Scale(0.004), seed)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	var l *lock.Locked
	switch scheme {
	case "weighted":
		l, err = lock.Weighted(c, lock.WeightedOptions{KeyBits: 12, ControlWidth: 3, KeyGates: 12, Rand: r})
	case "sarlock":
		l, err = lock.SARLock(c, 12, r)
	case "antisat":
		l, err = lock.AntiSAT(c, 6, r)
	case "ttlock":
		l, err = lock.TTLock(c, 12, r)
	case "randomxor":
		l, err = lock.RandomXOR(c, 12, r)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", scheme, seed, err)
	}
	p, err := ir.Compile(l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diffBit lists the fields in which two verdicts for one bit differ.
func diffBit(got, want ExactKeyBit) []string {
	var d []string
	cmp := func(field string, eq bool, g, w any) {
		if !eq {
			d = append(d, fmt.Sprintf("%s %v, reference %v", field, g, w))
		}
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	bigEq := func(a, b *big.Int) bool { return (a == nil) == (b == nil) && (a == nil || a.Cmp(b) == 0) }
	idsEq := func(a, b []int32) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
	cmp("Bit", got.Bit == want.Bit, got.Bit, want.Bit)
	cmp("OK", got.OK == want.OK, got.OK, want.OK)
	cmp("Err", errText(got.Err) == errText(want.Err), errText(got.Err), errText(want.Err))
	cmp("ConePOs", got.ConePOs == want.ConePOs, got.ConePOs, want.ConePOs)
	cmp("SensPOs", got.SensPOs == want.SensPOs, got.SensPOs, want.SensPOs)
	cmp("SupportVars", got.SupportVars == want.SupportVars, got.SupportVars, want.SupportVars)
	cmp("CorruptCount", bigEq(got.CorruptCount, want.CorruptCount), got.CorruptCount, want.CorruptCount)
	cmp("Rate", got.Rate == want.Rate, got.Rate, want.Rate)
	cmp("DistInputs", bigEq(got.DistInputs, want.DistInputs), got.DistInputs, want.DistInputs)
	cmp("LeakPOs", idsEq(got.LeakPOs, want.LeakPOs), got.LeakPOs, want.LeakPOs)
	return d
}

// TestGroupedExactMatchesPerBit compares the cone-grouped backend with
// the per-bit reference field by field, error texts included, plus the
// node, peak and fallback totals, on b20 designs under all five locking
// schemes and five budgets. The starved budgets trip both in a group's
// cone compile and in a bit's own operations, and the test checks that
// the grid reaches both.
func TestGroupedExactMatchesPerBit(t *testing.T) {
	budgets := []int{0, 50, 200, 1000, 3000}
	var bits, fallbacks, compileTrips, opTrips int
	for seed := uint64(1); seed <= 6; seed++ {
		for _, scheme := range []string{"weighted", "sarlock", "antisat", "ttlock", "randomxor"} {
			p := lockB20(t, scheme, seed)
			support := dataflow.InputTaint(p, p.Inputs)
			rank := make(map[int32]int, len(p.Inputs))
			for r, id := range bdd.InputOrder(p) {
				rank[id] = r
			}
			for _, budget := range budgets {
				name := fmt.Sprintf("%s seed %d budget %d", scheme, seed, budget)
				got := exactAnalyze(p, ExactOptions{NodeBudget: budget})
				want := exactAnalyzeRef(p, budget)
				for kb := range want.Bits {
					for _, d := range diffBit(got.Bits[kb], want.Bits[kb]) {
						t.Errorf("%s bit %d: %s", name, kb, d)
					}
					bits++
					if !want.Bits[kb].OK {
						fallbacks++
						if coneCompileNodes(t, p, support, rank, kb) > want.Stats.Budget {
							compileTrips++
						} else {
							opTrips++
						}
					}
				}
				g, w := got.Stats, want.Stats
				if g.Nodes != w.Nodes || g.PeakNodes != w.PeakNodes || g.Fallbacks != w.Fallbacks || g.Budget != w.Budget {
					t.Errorf("%s: nodes %d, peak %d, fallbacks %d, budget %d; reference %d, %d, %d, %d",
						name, g.Nodes, g.PeakNodes, g.Fallbacks, g.Budget, w.Nodes, w.PeakNodes, w.Fallbacks, w.Budget)
				}
			}
		}
	}
	t.Logf("%d bits compared, %d budget fallbacks: %d in the cone compile, %d in the bit's operations",
		bits, fallbacks, compileTrips, opTrips)
	if compileTrips == 0 || opTrips == 0 {
		t.Fatalf("the grid must trip the budget in both stages: %d compile trips, %d operation trips", compileTrips, opTrips)
	}
}
