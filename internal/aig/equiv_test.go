package aig

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// lockedB20 locks benchgen's b20 profile at scale 0.012 (the attack
// workload's size), seeds 1–3, with lk, and returns the compiled locked
// and original programs with the stored key.
func lockedB20(t *testing.T, lk func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error)) (locked, orig []*ir.Program, keys [][]bool) {
	t.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		c, err := benchgen.Generate(prof.Scale(0.012), seed)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lk(c, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		locked = append(locked, ir.MustCompile(l.Circuit))
		orig = append(orig, ir.MustCompile(c))
		keys = append(keys, l.Key)
	}
	return locked, orig, keys
}

func weighted16(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
	return lock.Weighted(c, lock.WeightedOptions{KeyBits: 16, ControlWidth: 3, KeyGates: 16, Rand: r})
}

func sarlock8(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
	return lock.SARLock(c, 8, r)
}

// tally counts verdicts by the stage that decided them.
type tally [bySAT + 1]int

// stages runs the checker on every design of lk under each key that keys
// derives from the stored one, fails on a verdict other than want, and
// counts the verdicts each stage decided.
func stages(t *testing.T, lk func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error), keys func([]bool) [][]bool, want bool) tally {
	t.Helper()
	var n tally
	locked, orig, stored := lockedB20(t, lk)
	for i := range locked {
		for ki, key := range keys(stored[i]) {
			eq, st, err := equivalent(locked[i], key, orig[i])
			if err != nil {
				t.Fatal(err)
			}
			if eq != want {
				t.Fatalf("%s key %d: equivalent=%v at stage %d, want %v", locked[i].Name, ki, eq, st, want)
			}
			n[st]++
		}
	}
	return n
}

func storedKey(k []bool) [][]bool { return [][]bool{k} }

func oneBitFlips(k []bool) [][]bool {
	var out [][]bool
	for i := range k {
		f := append([]bool(nil), k...)
		f[i] = !f[i]
		out = append(out, f)
	}
	return out
}

// TestEquivalentMergesEveryOutput: under the stored key, the weighted,
// SARLock, Anti-SAT and random-XOR locks strash onto the original's
// literals output for output, so no SAT runs.
func TestEquivalentMergesEveryOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		lk   func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error)
	}{
		{"weighted", weighted16},
		{"sarlock", sarlock8},
		{"antisat", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 4, r) }},
		{"randomxor", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 8, r) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := stages(t, tc.lk, storedKey, true); n != (tally{byStrash: 3}) {
				t.Fatalf("deciding stages %v, want strash for all 3 designs", n)
			}
		})
	}
}

// TestEquivalentSATRefutes: a one-bit key flip leaves the output pairs
// its key gate reaches open, and the SAT miter refutes every one. A
// weighted flip corrupts whenever its three control inputs match; a
// SARLock flip corrupts only where the eight compared inputs equal the
// flipped key, a single pattern of them.
func TestEquivalentSATRefutes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lk    func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error)
		flips int
	}{
		{"weighted", weighted16, 48},
		{"sarlock", sarlock8, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := stages(t, tc.lk, oneBitFlips, false); n != (tally{bySAT: tc.flips}) {
				t.Fatalf("deciding stages %v, want SAT for all %d flips", n, tc.flips)
			}
		})
	}
}

// TestEquivalentSATProves: TTLock's restore logic under the stored key
// leaves one output that strash cannot merge, and SAT proves the pair.
func TestEquivalentSATProves(t *testing.T) {
	ttlock := func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.TTLock(c, 8, r) }
	if n := stages(t, ttlock, storedKey, true); n != (tally{bySAT: 3}) {
		t.Fatalf("deciding stages %v, want SAT for all 3 designs", n)
	}
}

// TestEquivalentSATProvesHandBuilt: each pair hashes to different
// literals, so only the SAT stage can prove it. a∧(b∨c) against
// (a∧b)∨(a∧c) is distributivity; (a∧b)∧¬(a∧(b∨c)) against a constant 0
// puts the AIG's constant node into the miter.
func TestEquivalentSATProvesHandBuilt(t *testing.T) {
	type gates func(c *netlist.Circuit, a, b, d int) int
	build := func(name string, out gates) *ir.Program {
		c := netlist.New(name)
		a, _ := c.AddInput("a")
		b, _ := c.AddInput("b")
		d, _ := c.AddInput("c")
		c.MarkOutput(out(c, a, b, d))
		return ir.MustCompile(c)
	}
	factored := func(c *netlist.Circuit, a, b, d int) int {
		return c.MustAddGate(netlist.And, "o", a, c.MustAddGate(netlist.Or, "bc", b, d))
	}
	for _, tc := range []struct {
		name     string
		lhs, rhs gates
	}{
		{"distributivity", factored, func(c *netlist.Circuit, a, b, d int) int {
			return c.MustAddGate(netlist.Or, "o", c.MustAddGate(netlist.And, "ab", a, b), c.MustAddGate(netlist.And, "ac", a, d))
		}},
		{"constant", func(c *netlist.Circuit, a, b, d int) int {
			return c.MustAddGate(netlist.And, "z", c.MustAddGate(netlist.And, "ab", a, b), c.MustAddGate(netlist.Not, "n", factored(c, a, b, d)))
		}, func(c *netlist.Circuit, a, b, d int) int {
			z, _ := c.AddConst(false, "z")
			return z
		}},
	} {
		eq, st, err := equivalent(build(tc.name, tc.lhs), nil, build(tc.name, tc.rhs))
		if err != nil || !eq || st != bySAT {
			t.Fatalf("%s: equivalent=%v at stage %d (err %v), want true at stage %d", tc.name, eq, st, err, bySAT)
		}
	}
}

// TestEquivalentRejectsShapeMismatch: a key of the wrong width or a
// keyed reference is an error, not a verdict.
func TestEquivalentRejectsShapeMismatch(t *testing.T) {
	locked, orig, keys := lockedB20(t, sarlock8)
	if _, err := Equivalent(locked[0], keys[0][1:], orig[0]); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := Equivalent(locked[0], keys[0], locked[0]); err == nil {
		t.Fatal("keyed reference accepted")
	}
}
