package attack

import (
	"slices"
	"testing"

	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sim"
)

// lockedC17 returns c17 locked with the given scheme plus an ideal oracle.
func lockedRandom(t *testing.T, seed uint64, keyBits int) (*netlist.Circuit, *lock.Locked, oracle.Oracle) {
	t.Helper()
	r := rng.New(seed)
	orig := circuits.C17()
	l, err := lock.RandomXOR(orig, keyBits, r)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	return orig, l, o
}

func TestSATAttackRecoversRandomXORKey(t *testing.T) {
	orig, l, o := lockedRandom(t, 1, 5)
	res, err := SAT(l.Circuit, o, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SAT attack did not converge")
	}
	ok, err := VerifyKey(l.Circuit, orig, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("recovered key %v is not functionally correct", res.Key)
	}
	if res.Iterations == 0 && l.Circuit.NumKeys() > 0 {
		// Zero iterations would mean all keys equivalent; with 5 random
		// key gates on c17 that is wrong.
		t.Fatal("attack claimed convergence without any DIP")
	}
}

func TestSATAttackRecoversWeightedKey(t *testing.T) {
	r := rng.New(7)
	orig := circuits.RippleAdder(4)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 9, ControlWidth: 3, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SAT(l.Circuit, o, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := VerifyKey(l.Circuit, orig, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("SAT attack failed on weighted logic locking with an unprotected oracle")
	}
}

func TestSATAttackSARLockNeedsManyIterations(t *testing.T) {
	// SARLock on C17's 5 inputs forces exactly 2^5 − 1 DIPs, whichever
	// DIPs the search finds: each one rules out a single wrong key.
	r := rng.New(3)
	orig := circuits.C17()
	l, err := lock.SARLock(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SAT(l.Circuit, o, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 31 {
		t.Fatalf("SARLock defeated in %d iterations, want 2^5 − 1 = 31", res.Iterations)
	}
	ok, err := VerifyKey(l.Circuit, orig, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("SAT attack should still finish SARLock at this tiny scale")
	}
}

func TestSATAttackIterationBudget(t *testing.T) {
	r := rng.New(4)
	orig := circuits.C17()
	l, err := lock.SARLock(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := oracle.NewComb(orig, nil)
	_, err = SAT(l.Circuit, o, Budgets{MaxIterations: 3})
	if err != ErrIterationBudget {
		t.Fatalf("expected ErrIterationBudget, got %v", err)
	}
}

// TestBudgetRule pins the one round budget of the DIP loop. Each
// attack first runs unbudgeted and takes n rounds. Under a budget of
// n − 1 (when n ≥ 2) it must stop with ErrIterationBudget after exactly
// n − 1 rounds, and under a budget of n, SAT and AppSAT must converge to
// the unbudgeted key: a budget is spent only when a DIP is still
// pending. Double DIP also bounds its settle rounds by the budget, so n
// need not be enough for it; it takes one round on the 6-bit locks and
// three on the 8-bit one, which is there so its budget gets spent.
func TestBudgetRule(t *testing.T) {
	orig := circuits.RippleAdder(4)
	locks := []struct {
		name string
		mk   func() (*lock.Locked, error)
	}{
		{"random-xor-6", func() (*lock.Locked, error) { return lock.RandomXOR(orig, 6, rng.New(3)) }},
		{"weighted-6", func() (*lock.Locked, error) {
			return lock.Weighted(orig, lock.WeightedOptions{KeyBits: 6, ControlWidth: 2, KeyGates: 6, Rand: rng.New(3)})
		}},
		{"random-xor-8", func() (*lock.Locked, error) { return lock.RandomXOR(orig, 8, rng.New(2)) }},
	}
	attacks := []struct {
		name         string
		run          func(*netlist.Circuit, oracle.Oracle, Budgets) (*Result, error)
		convergesAtN bool
	}{
		{"SAT", SAT, true},
		{"AppSAT", func(c *netlist.Circuit, o oracle.Oracle, b Budgets) (*Result, error) {
			return AppSAT(c, o, AppSATOptions{Budgets: b, Rand: rng.New(9)})
		}, true},
		{"DoubleDIP", DoubleDIP, false},
	}
	spent := map[string]int{} // per attack: locks that ran the n − 1 case
	for _, lk := range locks {
		l, err := lk.mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range attacks {
			t.Run(lk.name+"/"+a.name, func(t *testing.T) {
				run := func(maxIter int) (*Result, error) {
					o, err := oracle.NewComb(orig, nil)
					if err != nil {
						t.Fatal(err)
					}
					return a.run(l.Circuit, o, Budgets{MaxIterations: maxIter})
				}
				free, err := run(0)
				if err != nil {
					t.Fatal(err)
				}
				n := free.Iterations
				if n >= 2 {
					spent[a.name]++
					res, err := run(n - 1)
					if err != ErrIterationBudget || res.Iterations != n-1 {
						t.Errorf("budget %d: %d rounds, error %v; want %d rounds and ErrIterationBudget", n-1, res.Iterations, err, n-1)
					}
				}
				if !a.convergesAtN {
					return
				}
				res, err := run(n)
				if err != nil || !res.Converged || !slices.Equal(res.Key, free.Key) {
					t.Errorf("budget %d: error %v, converged %v, key %v; want the unbudgeted key %v", n, err, res.Converged, res.Key, free.Key)
				}
			})
		}
	}
	for _, a := range attacks {
		if spent[a.name] == 0 {
			t.Errorf("%s took fewer than 2 rounds on every lock; its budget was never spent", a.name)
		}
	}
}

// TestBudgetExhaustedAttackReportsOracleTelemetry pins the oracle
// telemetry of an attack that stops on its iteration budget: the queries
// it spent must show in the result exactly as the session counted them.
func TestBudgetExhaustedAttackReportsOracleTelemetry(t *testing.T) {
	orig := circuits.RippleAdder(4)
	l, err := lock.SARLock(orig, 8, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	comb, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := oracle.NewSession(comb, 0)
	res, err := SAT(l.Circuit, sess, Budgets{MaxIterations: 3})
	if err != ErrIterationBudget {
		t.Fatalf("expected ErrIterationBudget, got %v", err)
	}
	if sess.Queries() != 3 {
		t.Fatalf("session saw %d queries, want 3", sess.Queries())
	}
	if res.OracleQueries != sess.Queries() {
		t.Fatalf("result reports %d queries; session has %d", res.OracleQueries, sess.Queries())
	}
	if res.SolverStats.Propagations == 0 {
		t.Fatal("solver stats missing on the budget exit")
	}
}

// countWrongInputsExhaustive counts input patterns (over all 2^n, n ≤ 12)
// on which the locked circuit under key disagrees with the original.
func countWrongInputsExhaustive(t *testing.T, orig, locked *netlist.Circuit, key []bool) int {
	t.Helper()
	n := orig.NumInputs()
	if n > 12 {
		t.Fatalf("too many inputs for exhaustive check: %d", n)
	}
	wrong := 0
	for v := 0; v < 1<<uint(n); v++ {
		x := make([]bool, n)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, x, nil)
		got, _ := sim.Eval(locked, x, key)
		for j := range want {
			if want[j] != got[j] {
				wrong++
				break
			}
		}
	}
	return wrong
}

func TestDoubleDIPApproximatesRandomXORKey(t *testing.T) {
	// Double DIP stops when no 2-DIP remains, so at most one wrong key
	// equivalence class (one last ordinary DIP's worth of error) can
	// survive on traditional locking.
	orig, l, o := lockedRandom(t, 5, 4)
	res, err := DoubleDIP(l.Circuit, o, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == nil {
		t.Fatal("Double DIP returned no key")
	}
	if wrong := countWrongInputsExhaustive(t, orig, l.Circuit, res.Key); wrong > 2 {
		t.Fatalf("Double DIP key wrong on %d/32 inputs; expected near-correct", wrong)
	}
}

func TestDoubleDIPBeatsSATOnCompoundSARLock(t *testing.T) {
	// On a compound defense (traditional locking + SARLock), plain SAT
	// must drain the point-function tail one key per DIP (~2^5), while
	// Double DIP stops as soon as the traditional part is resolved.
	r := rng.New(6)
	orig := circuits.C17()
	l, err := lock.Stack(orig,
		func(c *netlist.Circuit) (*lock.Locked, error) { return lock.RandomXOR(c, 3, r) },
		func(c *netlist.Circuit) (*lock.Locked, error) { return lock.SARLock(c, 0, r) },
	)
	if err != nil {
		t.Fatal(err)
	}
	oA, _ := oracle.NewComb(orig, nil)
	oB, _ := oracle.NewComb(orig, nil)
	plain, err := SAT(l.Circuit, oA, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := DoubleDIP(l.Circuit, oB, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if dd.Iterations*2 >= plain.Iterations {
		t.Fatalf("Double DIP used %d iterations vs plain SAT's %d; expected far fewer", dd.Iterations, plain.Iterations)
	}
	if wrong := countWrongInputsExhaustive(t, orig, l.Circuit, dd.Key); wrong > 2 {
		t.Fatalf("Double DIP compound key wrong on %d/32 inputs", wrong)
	}
}

func TestAppSATExactConvergence(t *testing.T) {
	orig, l, o := lockedRandom(t, 8, 4)
	res, err := AppSAT(l.Circuit, o, AppSATOptions{Rand: rng.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := VerifyKey(l.Circuit, orig, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("AppSAT failed on random XOR locking")
	}
}

func TestAppSATSettlesOnSARLock(t *testing.T) {
	// On SARLock, AppSAT should settle early with an approximately
	// correct key: wrong on at most a single input pattern.
	r := rng.New(10)
	orig := circuits.C17()
	l, err := lock.SARLock(orig, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := oracle.NewComb(orig, nil)
	res, err := AppSAT(l.Circuit, o, AppSATOptions{
		Budgets: Budgets{MaxIterations: 64},
		Rand:    rng.New(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == nil {
		t.Fatal("AppSAT returned no key")
	}
	// Count exact wrong inputs of the returned key.
	wrongInputs := 0
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		want, _ := oracle.Query(o, x)
		got, _ := evalLocked(t, l, x, res.Key)
		for j := range want {
			if want[j] != got[j] {
				wrongInputs++
				break
			}
		}
	}
	if wrongInputs > 1 {
		t.Fatalf("AppSAT key wrong on %d/32 inputs; SARLock should admit ≤1", wrongInputs)
	}
}

func TestHillClimbRecoversRandomXORKey(t *testing.T) {
	orig, l, o := lockedRandom(t, 12, 4)
	res, err := HillClimb(l.Circuit, o, HillOptions{Patterns: 128, Restarts: 16, Rand: rng.New(13)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("hill climbing found no zero-cost key on the working set")
	}
	ok, err := VerifyKey(l.Circuit, orig, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("hill-climbed key not equivalent (working set may be too small)")
	}
}

// disjointLocked builds a circuit of two independent cones, each locked
// with one key gate, so both key bits propagate to isolated outputs — the
// directly sensitizable situation of the key-sensitization paper.
func disjointLocked(t *testing.T) (*netlist.Circuit, *netlist.Circuit, []bool) {
	t.Helper()
	orig := netlist.New("disjoint")
	a, _ := orig.AddInput("a")
	b, _ := orig.AddInput("b")
	c, _ := orig.AddInput("c")
	d, _ := orig.AddInput("d")
	o1 := orig.MustAddGate(netlist.And, "o1", a, b)
	o2 := orig.MustAddGate(netlist.Or, "o2", c, d)
	orig.MarkOutput(o1)
	orig.MarkOutput(o2)

	locked := netlist.New("disjoint_locked")
	la, _ := locked.AddInput("a")
	lb, _ := locked.AddInput("b")
	lc, _ := locked.AddInput("c")
	ld, _ := locked.AddInput("d")
	k0, _ := locked.AddKeyInput("keyinput0")
	k1, _ := locked.AddKeyInput("keyinput1")
	and := locked.MustAddGate(netlist.And, "and", la, lb)
	lo1 := locked.MustAddGate(netlist.Xor, "o1", and, k0) // correct k0 = 0
	or := locked.MustAddGate(netlist.Or, "or", lc, ld)
	lo2 := locked.MustAddGate(netlist.Xnor, "o2", or, k1) // correct k1 = 1
	locked.MarkOutput(lo1)
	locked.MarkOutput(lo2)
	return orig, locked, []bool{false, true}
}

func TestSensitizeRecoversIsolatedKeyBits(t *testing.T) {
	orig, locked, key := disjointLocked(t)
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sensitize(locked, o, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("isolated key bits not all determined: %v", res.Determined)
	}
	for i := range key {
		if res.Key[i] != key[i] {
			t.Fatalf("key bit %d inferred as %v, truth %v", i, res.Key[i], key[i])
		}
	}
}

func TestSensitizeCorrectBitsOnRandomLocking(t *testing.T) {
	// On entangled random locking the attack may determine only some (or
	// no) bits, but every bit it does determine must be correct.
	orig, l, o := lockedRandom(t, 14, 3)
	res, err := Sensitize(l.Circuit, o, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Determined {
		if d && res.Key[i] != l.Key[i] {
			// A determined-but-wrong bit means the verification sampling
			// is unsound, not merely incomplete.
			ok, verr := VerifyKey(l.Circuit, orig, l.Key)
			t.Fatalf("key bit %d inferred as %v, truth %v (sanity: correct key verifies=%v err=%v)",
				i, res.Key[i], l.Key[i], ok, verr)
		}
	}
}

func TestVerifyKeyRejectsWrongKey(t *testing.T) {
	orig, l, _ := lockedRandom(t, 16, 4)
	wrong := append([]bool(nil), l.Key...)
	wrong[0] = !wrong[0]
	ok, err := VerifyKey(l.Circuit, orig, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong key verified as equivalent")
	}
	ok, err = VerifyKey(l.Circuit, orig, l.Key)
	if err != nil || !ok {
		t.Fatalf("correct key rejected (ok=%v err=%v)", ok, err)
	}
}

func TestSampleDisagreement(t *testing.T) {
	orig, l, o := lockedRandom(t, 17, 4)
	r := rng.New(18)
	exact, err := SampleDisagreement(l.Circuit, l.Key, o, 64, r)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 0 {
		t.Fatalf("correct key disagreement = %v, want 0", exact)
	}
	wrong := append([]bool(nil), l.Key...)
	for i := range wrong {
		wrong[i] = !wrong[i]
	}
	bad, err := SampleDisagreement(l.Circuit, wrong, o, 64, r)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("all-flipped key shows zero disagreement")
	}
	_ = orig
}

// evalLocked is a tiny wrapper to keep test call sites short.
func evalLocked(t *testing.T, l *lock.Locked, x, key []bool) ([]bool, error) {
	t.Helper()
	return simEval(l.Circuit, x, key)
}

// simEval re-exports sim.Eval for test readability.
func simEval(c *netlist.Circuit, x, key []bool) ([]bool, error) {
	return sim.Eval(c, x, key)
}

// TestAttacksRejectOracleShape runs every oracle-guided attack against an
// oracle with more outputs than the locked circuit and against one with
// fewer: each must return an error before its first query.
func TestAttacksRejectOracleShape(t *testing.T) {
	attacks := []struct {
		name string
		run  func(locked *netlist.Circuit, o oracle.Oracle) error
	}{
		{"SAT", func(c *netlist.Circuit, o oracle.Oracle) error {
			_, err := SAT(c, o, Budgets{})
			return err
		}},
		{"DoubleDIP", func(c *netlist.Circuit, o oracle.Oracle) error {
			_, err := DoubleDIP(c, o, Budgets{})
			return err
		}},
		{"AppSAT", func(c *netlist.Circuit, o oracle.Oracle) error {
			_, err := AppSAT(c, o, AppSATOptions{Rand: rng.New(1)})
			return err
		}},
		{"HillClimb", func(c *netlist.Circuit, o oracle.Oracle) error {
			_, err := HillClimb(c, o, HillOptions{Rand: rng.New(1)})
			return err
		}},
		{"Sensitize", func(c *netlist.Circuit, o oracle.Oracle) error {
			_, err := Sensitize(c, o, rng.New(1))
			return err
		}},
		{"Bypass", func(c *netlist.Circuit, o oracle.Oracle) error {
			_, err := Bypass(c, o, make([]bool, c.NumKeys()), 64)
			return err
		}},
	}
	// c17 and the 2-bit ripple adder both have five inputs; c17 has two
	// outputs and the adder three.
	shapes := []struct {
		name           string
		locked, oracle *netlist.Circuit
	}{
		{"more-outputs", circuits.C17(), circuits.RippleAdder(2)},
		{"fewer-outputs", circuits.RippleAdder(2), circuits.C17()},
	}
	for _, sh := range shapes {
		l, err := lock.RandomXOR(sh.locked, 3, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range attacks {
			t.Run(sh.name+"/"+a.name, func(t *testing.T) {
				o, err := oracle.NewComb(sh.oracle, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.run(l.Circuit, o); err == nil {
					t.Fatal("mismatched oracle accepted")
				}
				if q := o.Queries(); q != 0 {
					t.Fatalf("%d oracle queries before the shape error", q)
				}
			})
		}
	}
}
