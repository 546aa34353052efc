package attack

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
	"orap/internal/sim"
)

func TestBypassDefeatsSARLock(t *testing.T) {
	orig := circuits.C17()
	l, err := lock.SARLock(orig, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any wrong key works; flip one bit of the truth.
	chosen := append([]bool(nil), l.Key...)
	chosen[0] = !chosen[0]
	res, err := Bypass(l.Circuit, o, chosen, 64)
	if err != nil {
		t.Fatal(err)
	}
	// SARLock with a fixed wrong key differs from *some* key on ≤ 2^n
	// point patterns; the enumeration over the second free key visits
	// them all, but the patch count must stay ≤ 32 (the input space).
	if len(res.Patches) == 0 || len(res.Patches) > 32 {
		t.Fatalf("patch count %d implausible for SARLock", len(res.Patches))
	}
	// The patched design must now be exactly the original function.
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, x, nil)
		got, err := res.Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("patched design wrong at %05b", v)
			}
		}
	}
}

func TestBypassBudgetOnHighCorruptionLocking(t *testing.T) {
	// Against weighted locking the disagreement set is enormous: the
	// bypass attack must hit its patch budget, reproducing why bypass
	// only threatens low-corruption (point-function) defenses.
	orig := circuits.RippleAdder(4)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 9, ControlWidth: 3, KeyGates: 9, Rand: rng.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := oracle.NewComb(orig, nil)
	chosen := make([]bool, 9)
	if _, err := Bypass(l.Circuit, o, chosen, 16); err == nil {
		t.Fatal("bypass should exhaust its budget against high-corruption locking")
	}
}

func TestBypassStarvedByOraP(t *testing.T) {
	// The oracle-based step — querying the correct responses at the
	// disagreement points — fails against OraP: the patches record
	// locked-circuit responses and the patched design stays wrong.
	orig := circuits.C17()
	l, err := lock.SARLock(orig, 0, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// The cleared OraP register presents the all-zero key; the test needs
	// a nonzero correct key or the locked-tested chip would accidentally
	// answer correctly (a 2^-n coincidence, not a protection property).
	nonzero := false
	for _, b := range l.Key {
		nonzero = nonzero || b
	}
	if !nonzero {
		t.Fatal("test setup drew the all-zero key; pick another seed")
	}
	cfg, err := orap.Protect(l.Circuit, l.Key, orig.NumInputs(), orig.NumOutputs(), scan.OraPBasic, orap.Options{Rand: rng.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	o := oracle.NewScan(ch)

	chosen := append([]bool(nil), l.Key...)
	chosen[0] = !chosen[0]
	res, err := Bypass(l.Circuit, o, chosen, 64)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, x, nil)
		got, err := res.Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if want[j] != got[j] {
				wrong++
				break
			}
		}
	}
	if wrong == 0 {
		t.Fatal("bypass through the OraP oracle produced a correct design — protection broken")
	}
}

func TestBypassValidatesKeyWidth(t *testing.T) {
	orig := circuits.C17()
	l, _ := lock.SARLock(orig, 0, rng.New(5))
	o, _ := oracle.NewComb(orig, nil)
	if _, err := Bypass(l.Circuit, o, []bool{true}, 64); err == nil {
		t.Fatal("wrong key width accepted")
	}
	if _, err := Bypass(l.Circuit, o, make([]bool, l.Circuit.NumKeys()), 0); err == nil {
		t.Fatal("non-positive patch bound accepted")
	}
}

// TestBypassPatchesOnlyKeySupport locks one of two disjoint cones with a
// 2-bit SARLock. The enumeration must block and patch that cone's two
// inputs only, finding the 2^2 - 1 distinguishing patterns once each
// instead of once per assignment of the other cone's inputs.
func TestBypassPatchesOnlyKeySupport(t *testing.T) {
	orig := netlist.New("twocones")
	a, _ := orig.AddInput("a")
	b, _ := orig.AddInput("b")
	c, _ := orig.AddInput("c")
	d, _ := orig.AddInput("d")
	orig.MarkOutput(orig.MustAddGate(netlist.And, "ab", a, b))
	orig.MarkOutput(orig.MustAddGate(netlist.Or, "cd", c, d))
	l, err := lock.SARLock(orig, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	chosen := append([]bool(nil), l.Key...)
	chosen[0] = !chosen[0]
	res, err := Bypass(l.Circuit, o, chosen, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.support) != 2 {
		t.Fatalf("%d support inputs, want 2 (the SARLocked cone's)", len(res.support))
	}
	if len(res.Patches) != 3 || res.OracleQueries != 3 {
		t.Fatalf("%d patches from %d queries, want 3 and 3", len(res.Patches), res.OracleQueries)
	}
	if res.Iterations != len(res.Patches) || !res.Converged {
		t.Fatalf("%d iterations for %d patches, converged %v; want one per patch and converged", res.Iterations, len(res.Patches), res.Converged)
	}
	for v := 0; v < 16; v++ {
		x := make([]bool, 4)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, x, nil)
		got, err := res.Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("patched design wrong at %04b", v)
			}
		}
	}
}

// TestBypassEvalConcurrent checks that the patched design can be
// evaluated from several goroutines at once (run under -race): every
// goroutine's answers match the serial ones.
func TestBypassEvalConcurrent(t *testing.T) {
	orig := circuits.C17()
	l, err := lock.SARLock(orig, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	chosen := append([]bool(nil), l.Key...)
	chosen[0] = !chosen[0]
	res, err := Bypass(l.Circuit, o, chosen, 64)
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([][]bool, 32)
	serial := make([][]bool, len(patterns))
	for v := range patterns {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		patterns[v] = x
		if serial[v], err = res.Eval(x); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 4
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v, x := range patterns {
				got, err := res.Eval(x)
				if err != nil {
					errs[g] = err
					return
				}
				if !slices.Equal(got, serial[v]) {
					errs[g] = fmt.Errorf("pattern %05b: got %v, serial %v", v, got, serial[v])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
