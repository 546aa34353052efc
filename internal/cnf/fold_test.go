package cnf

import (
	"fmt"
	"slices"
	"testing"

	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sat"
)

// foldedSchemes lock a circuit with 6 key bits under each of the five
// schemes.
var foldedSchemes = []struct {
	name string
	lock func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error)
}{
	{"sarlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 6, r) }},
	{"weighted", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) {
		return lock.Weighted(c, lock.WeightedOptions{KeyBits: 6, ControlWidth: 3, KeyGates: 6, Rand: r})
	}},
	{"antisat", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 3, r) }},
	{"ttlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.TTLock(c, 6, r) }},
	{"randomxor", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 6, r) }},
}

// checkKeySet checks the rule the observation encoding keeps: under
// AssumeNoDiff, with Key1 assumed to be k, the miter is satisfiable
// exactly when IR evaluation of the locked program under k reproduces
// every recorded response. It tries every key.
func checkKeySet(t *testing.T, name string, m *Miter, xs, ys [][]bool) {
	t.Helper()
	nk := m.Prog.NumKeys()
	key := make([]bool, nk)
	assumps := make([]sat.Lit, 0, 1+nk)
	for code := 0; code < 1<<nk; code++ {
		for i := range key {
			key[i] = code>>i&1 == 1
		}
		want := true
		for j := range xs {
			got, err := m.Prog.Eval(xs[j], key)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, ys[j]) {
				want = false
				break
			}
		}
		assumps = append(assumps[:0], m.AssumeNoDiff())
		for i, v := range m.Key1 {
			assumps = append(assumps, sat.MkLit(v, !key[i]))
		}
		ok, err := m.S.Solve(assumps...)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Fatalf("%s after %d observations: key %0*b satisfiable %v, but it reproduces every response: %v", name, len(xs), nk, code, ok, want)
		}
	}
}

// checkFoldedKeySet locks b20@0.004 (8 inputs, benchgen seed) with 6 key
// bits under scheme, records obs random observations of the original
// circuit, and flips one response bit of observation j when bit j of
// flips is set. After every observation checkKeySet tries all 64 keys.
func checkFoldedKeySet(t *testing.T, seed uint64, scheme, obs int, flips uint8) {
	t.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchgen.Generate(prof.Scale(0.004), seed)
	if err != nil {
		t.Fatal(err)
	}
	sc := foldedSchemes[scheme]
	r := rng.New(seed)
	l, err := sc.lock(c.Clone(), r)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s seed %d", sc.name, seed)
	if l.Circuit.NumKeys() != 6 {
		t.Fatalf("%s: %d key bits, want 6", name, l.Circuit.NumKeys())
	}
	m, err := NewMiter(sat.New(), l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys [][]bool
	for j := range obs {
		x := make([]bool, c.NumInputs())
		r.Bits(x)
		y, err := m.Prog.Eval(x, l.Key)
		if err != nil {
			t.Fatal(err)
		}
		if flips>>j&1 == 1 {
			o := r.Intn(len(y))
			y[o] = !y[o]
		}
		if err := m.AddIOConstraint(x, y); err != nil {
			t.Fatal(err)
		}
		xs, ys = append(xs, x), append(ys, y)
		checkKeySet(t, name, m, xs, ys)
	}
}

// TestFoldedKeySet runs checkFoldedKeySet on b20@0.004 under all five
// schemes at benchgen seeds 1–20, four observations each. Seeds whose
// residue mod 8 is below 4 flip one response bit, of that observation.
func TestFoldedKeySet(t *testing.T) {
	for scheme := range foldedSchemes {
		for seed := uint64(1); seed <= 20; seed++ {
			checkFoldedKeySet(t, seed, scheme, 4, uint8(1)<<(seed%8))
		}
	}
}

// FuzzFoldedKeySet drives checkFoldedKeySet from the fuzz bytes: the
// benchgen seed, the scheme, the observation count (1–8) and the mask of
// observations with a flipped response bit. The seed corpus covers each
// scheme.
func FuzzFoldedKeySet(f *testing.F) {
	for scheme := range foldedSchemes {
		f.Add(uint64(scheme+1), uint8(scheme), uint8(3), uint8(1)<<scheme)
		f.Add(uint64(scheme+21), uint8(scheme), uint8(5), uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed uint64, scheme, obs, flips uint8) {
		checkFoldedKeySet(t, seed, int(scheme)%len(foldedSchemes), 1+int(obs)%8, flips)
	})
}

// TestFoldedGateKinds runs checkKeySet on a hand-built locked circuit
// with BUF and NOT, and with AND, NAND, OR, NOR, XOR and XNOR at 2–4
// fanins mixing primary inputs, key inputs, a repeated key input, a key
// input beside its own NOT and a BUF of a key beside that key, under
// gates of a second level and beside a key-independent output. For every
// key as the oracle's, it records every input pattern in turn, once with
// every response intact and once with one bit of one response flipped,
// and checks every key after each observation.
func TestFoldedGateKinds(t *testing.T) {
	c := netlist.New("foldkinds")
	var x, k [3]int
	for i := range x {
		x[i], _ = c.AddInput(fmt.Sprintf("x%d", i))
	}
	for i := range k {
		k[i], _ = c.AddKeyInput(fmt.Sprintf("keyinput%d", i))
	}
	nk1 := c.MustAddGate(netlist.Not, "nk1", k[1])
	bk0 := c.MustAddGate(netlist.Buf, "bk0", k[0])
	fanins := [][]int{
		{x[0], k[0]},             // an input and a key
		{k[0], k[2]},             // key-only
		{k[1], nk1},              // a key beside its own NOT, alone
		{k[1], x[1], k[1]},       // a repeated key
		{nk1, bk0, x[2]},         // a NOT, a BUF and an input
		{k[2], nk1, k[1], x[2]},  // a key beside its own NOT
		{bk0, k[0], x[0], nk1},   // a BUF of a key beside that key
		{k[2], k[2], k[2], x[0]}, // a key three times
		{nk1, nk1, bk0, bk0},     // key-only, each fanin twice
	}
	kinds := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	for i, kind := range kinds {
		var g []int
		for j, fan := range fanins {
			g = append(g, c.MustAddGate(kind, fmt.Sprintf("g%d_%d", i, j), fan...))
			c.MarkOutput(g[j])
		}
		// A second level reads gates of this kind through NOT and BUF.
		ng := c.MustAddGate(netlist.Not, fmt.Sprintf("n%d", i), g[3])
		bg := c.MustAddGate(netlist.Buf, fmt.Sprintf("b%d", i), g[5])
		c.MarkOutput(c.MustAddGate(kinds[(i+1)%len(kinds)], fmt.Sprintf("h%d", i), g[0], ng, bg, x[i%len(x)]))
		c.MarkOutput(ng)
	}
	c.MarkOutput(c.MustAddGate(netlist.And, "free", x[0], x[1]))

	key := make([]bool, len(k))
	for code := 0; code < 1<<len(k); code++ {
		for i := range key {
			key[i] = code>>i&1 == 1
		}
		for _, flipAt := range []int{-1, code} {
			m, err := NewMiter(sat.New(), c)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("oracle key %03b, flip at %d", code, flipAt)
			var xs, ys [][]bool
			for p := 0; p < 1<<len(x); p++ {
				in := make([]bool, len(x))
				for i := range in {
					in[i] = p>>i&1 == 1
				}
				y, err := m.Prog.Eval(in, key)
				if err != nil {
					t.Fatal(err)
				}
				if p == flipAt {
					o := (p + code) % len(y)
					y[o] = !y[o]
				}
				if err := m.AddIOConstraint(in, y); err != nil {
					t.Fatal(err)
				}
				xs, ys = append(xs, in), append(ys, y)
				checkKeySet(t, name, m, xs, ys)
			}
		}
	}
}
