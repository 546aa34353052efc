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

// verifySchemes are the attack workload's five locking schemes and key
// sizes: weighted 16-bit, SARLock 8, Anti-SAT (two 4-bit halves),
// TTLock 8 and random XOR 8.
var verifySchemes = []struct {
	name string
	lk   func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error)
}{
	{"weighted", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
		return lock.Weighted(c, lock.WeightedOptions{KeyBits: 16, ControlWidth: 3, KeyGates: 16, Rand: r})
	}},
	{"sarlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 8, r) }},
	{"antisat", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 4, r) }},
	{"ttlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.TTLock(c, 8, r) }},
	{"randomxor", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 8, r) }},
}

// verifyDesigns locks benchgen's b20 profile at the given scale and
// seeds under every scheme of verifySchemes.
func verifyDesigns(tb testing.TB, scale float64, seeds ...uint64) []verifyDesign {
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
		for _, sc := range verifySchemes {
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
	for _, d := range verifyDesigns(t, 0.012, 1, 2, 3) {
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
	for _, d := range verifyDesigns(t, 0.004, 1, 2, 3) {
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
