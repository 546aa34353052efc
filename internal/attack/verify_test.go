package attack

import (
	"fmt"
	"testing"

	"orap/internal/audit"
	"orap/internal/benchgen"
	"orap/internal/cnf"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sat"
)

// verifyKeyMiter is the reference VerifyKey: a SAT miter over two full,
// unshared CNF copies of the locked circuit (key bits fixed by unit
// clauses) and the reference, asking for an input on which some output
// differs. It shares no code with aig.Equivalent beyond the solver.
func verifyKeyMiter(locked, reference *netlist.Circuit, key []bool) (bool, error) {
	lp, err := ir.Compile(locked)
	if err != nil {
		return false, err
	}
	rp, err := ir.Compile(reference)
	if err != nil {
		return false, err
	}
	s := sat.New()
	li, err := cnf.EncodeProgram(s, lp, cnf.Options{})
	if err != nil {
		return false, err
	}
	if err := cnf.ConstrainBits(s, li.KeyVars, key); err != nil {
		return false, err
	}
	ri, err := cnf.EncodeProgram(s, rp, cnf.Options{PIVars: li.PIVars})
	if err != nil {
		return false, err
	}
	diffs := make([]sat.Lit, 0, len(li.POVars))
	for i := range li.POVars {
		d := sat.MkLit(s.NewVar(), false)
		cnf.EmitXor2(s, d, sat.MkLit(li.POVars[i], false), sat.MkLit(ri.POVars[i], false))
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...)
	satisfiable, err := s.Solve()
	if err != nil {
		return false, err
	}
	return !satisfiable, nil
}

// verifyDesign is one generated circuit under one locking scheme.
type verifyDesign struct {
	name, scheme string
	orig         *netlist.Circuit
	l            *lock.Locked
}

// lockScheme locks a circuit under one named scheme.
type lockScheme struct {
	name string
	lk   func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error)
}

// verifySchemes are the attack workload's five locking schemes and key
// sizes: weighted 16-bit, SARLock 8, Anti-SAT (two 4-bit halves),
// TTLock 8 and random XOR 8.
var verifySchemes = []lockScheme{
	{"weighted", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
		return lock.Weighted(c, lock.WeightedOptions{KeyBits: 16, ControlWidth: 3, KeyGates: 16, Rand: r})
	}},
	{"sarlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 8, r) }},
	{"antisat", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 4, r) }},
	{"ttlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.TTLock(c, 8, r) }},
	{"randomxor", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 8, r) }},
}

// verifyDesigns locks benchgen's b20 profile at the given scale and
// seeds under every scheme of schemes.
func verifyDesigns(tb testing.TB, schemes []lockScheme, scale float64, seeds ...uint64) []verifyDesign {
	tb.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		tb.Fatal(err)
	}
	var ds []verifyDesign
	for _, seed := range seeds {
		c, err := benchgen.Generate(prof.Scale(scale), seed)
		if err != nil {
			tb.Fatal(err)
		}
		for _, sc := range schemes {
			l, err := sc.lk(c, rng.NewNamed(seed, "verify/"+sc.name))
			if err != nil {
				tb.Fatal(err)
			}
			ds = append(ds, verifyDesign{fmt.Sprintf("%s/%s/%d", c.Name, sc.name, seed), sc.name, c, l})
		}
	}
	return ds
}

// verifyKeys returns the stored key, each of its one-bit flips and four
// random keys drawn from r.
func verifyKeys(stored []bool, r *rng.Stream) [][]bool {
	keys := [][]bool{stored}
	for i := range stored {
		k := append([]bool(nil), stored...)
		k[i] = !k[i]
		keys = append(keys, k)
	}
	for i := 0; i < 4; i++ {
		k := make([]bool, len(stored))
		r.Bits(k)
		keys = append(keys, k)
	}
	return keys
}

// TestVerifyKeyMatchesMiter checks VerifyKey against the two-copy CNF
// miter on every key of verifyKeys over the attack workload's designs.
func TestVerifyKeyMatchesMiter(t *testing.T) {
	r := rng.New(17)
	verdicts := 0
	for _, d := range verifyDesigns(t, verifySchemes, 0.012, 1, 2, 3) {
		for ki, key := range verifyKeys(d.l.Key, r) {
			got, err := VerifyKey(d.l.Circuit, d.orig, key)
			if err != nil {
				t.Fatalf("%s key %d: %v", d.name, ki, err)
			}
			want, err := verifyKeyMiter(d.l.Circuit, d.orig, key)
			if err != nil {
				t.Fatalf("%s key %d: miter: %v", d.name, ki, err)
			}
			if got != want {
				t.Fatalf("%s key %d: VerifyKey %v, two-copy miter %v", d.name, ki, got, want)
			}
			if ki == 0 && !got {
				t.Fatalf("%s: stored key rejected", d.name)
			}
			verdicts++
		}
	}
	if verdicts != 219 {
		t.Fatalf("checked %d verdicts, want 219", verdicts)
	}
}

// TestVerifyKeyMatchesBDD checks VerifyKey against the BDD proof of
// audit.KeyEquivalence on smaller designs, where the BDDs stay in budget.
func TestVerifyKeyMatchesBDD(t *testing.T) {
	r := rng.New(18)
	for _, d := range verifyDesigns(t, verifySchemes, 0.004, 1, 2, 3) {
		for ki, key := range verifyKeys(d.l.Key, r) {
			got, err := VerifyKey(d.l.Circuit, d.orig, key)
			if err != nil {
				t.Fatalf("%s key %d: %v", d.name, ki, err)
			}
			rep, err := audit.KeyEquivalence(d.l.Circuit, d.orig, key, audit.ExactOptions{})
			if err != nil {
				t.Fatalf("%s key %d: BDD proof: %v", d.name, ki, err)
			}
			if want := !rep.HasErrors(); got != want {
				t.Fatalf("%s key %d: VerifyKey %v, BDD proof %v", d.name, ki, got, want)
			}
		}
	}
}

// keyCheckSchemes are verifySchemes' five schemes at 6–8 key bits:
// weighted 8-bit, SARLock 8, Anti-SAT (two 3-bit halves), TTLock 8 and
// random XOR 8.
var keyCheckSchemes = []lockScheme{
	{"weighted", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
		return lock.Weighted(c, lock.WeightedOptions{KeyBits: 8, ControlWidth: 3, KeyGates: 8, Rand: r})
	}},
	{"sarlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 8, r) }},
	{"antisat", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 3, r) }},
	{"ttlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.TTLock(c, 8, r) }},
	{"randomxor", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 8, r) }},
}

// TestRecoveredKeysMatchBDD runs the SAT, Double DIP and AppSAT attacks
// through an ideal oracle on b20@0.004 (8 inputs) under keyCheckSchemes
// and checks every recovered key with both equivalence engines:
// VerifyKey (strash, then SAT) and the BDD proof of
// audit.KeyEquivalence. The SAT attack must converge on a key both
// accept. Double DIP and AppSAT may stop on a key that a point function
// still corrupts on a few patterns, so for them the engines need only
// agree.
func TestRecoveredKeysMatchBDD(t *testing.T) {
	if testing.Short() {
		t.Skip("60 attacks with two proofs each")
	}
	checked := 0
	for _, d := range verifyDesigns(t, keyCheckSchemes, 0.004, 1, 2, 3, 4) {
		for _, atk := range []string{"sat", "doubledip", "appsat"} {
			o, err := oracle.NewComb(d.orig, nil)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			switch atk {
			case "sat":
				res, err = SAT(d.l.Circuit, o, Budgets{})
			case "doubledip":
				res, err = DoubleDIP(d.l.Circuit, o, Budgets{})
			case "appsat":
				res, err = AppSAT(d.l.Circuit, o, AppSATOptions{Rand: rng.NewNamed(1, "keycheck/appsat")})
			}
			if err != nil {
				t.Fatalf("%s %s: %v", d.name, atk, err)
			}
			if res.Key == nil {
				t.Fatalf("%s %s: no key recovered", d.name, atk)
			}
			got, err := VerifyKey(d.l.Circuit, d.orig, res.Key)
			if err != nil {
				t.Fatalf("%s %s: %v", d.name, atk, err)
			}
			rep, err := audit.KeyEquivalence(d.l.Circuit, d.orig, res.Key, audit.ExactOptions{})
			if err != nil {
				t.Fatalf("%s %s: BDD proof: %v", d.name, atk, err)
			}
			if bdd := !rep.HasErrors(); got != bdd {
				t.Errorf("%s %s: VerifyKey %v, BDD proof %v", d.name, atk, got, bdd)
			}
			if atk == "sat" && (!res.Converged || !got) {
				t.Errorf("%s: SAT attack converged %v on a key VerifyKey accepts %v", d.name, res.Converged, got)
			}
			checked++
		}
	}
	if checked != 60 {
		t.Fatalf("checked %d keys, want 60", checked)
	}
}
