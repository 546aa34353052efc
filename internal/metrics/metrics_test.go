package metrics

import (
	"fmt"
	"testing"

	"orap/internal/benchgen"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

func TestHDZeroWhenWrongKeysCannotCorrupt(t *testing.T) {
	// A key gate on a dead branch... simpler: XNOR pair that cancels.
	// Build a circuit where the key input feeds two XORs that cancel out.
	c := netlist.New("cancel")
	a, _ := c.AddInput("a")
	k, _ := c.AddKeyInput("keyinput0")
	x1 := c.MustAddGate(netlist.Xor, "x1", a, k)
	x2 := c.MustAddGate(netlist.Xor, "x2", x1, k)
	c.MarkOutput(x2) // x2 == a regardless of k
	res, err := HammingDistance(c, []bool{false}, HDOptions{Patterns: 1 << 10, WrongKeys: 1, Rand: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.HDPercent != 0 {
		t.Fatalf("cancelling key shows HD %.2f%%, want 0", res.HDPercent)
	}
}

func TestHDFiftyForPureXorKey(t *testing.T) {
	// y = a ⊕ k: a wrong key flips y on every pattern → HD = 100%.
	// With a second key-free output the average halves to 50%.
	c := netlist.New("xork")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	k, _ := c.AddKeyInput("keyinput0")
	y := c.MustAddGate(netlist.Xor, "y", a, k)
	z := c.MustAddGate(netlist.And, "z", a, b)
	c.MarkOutput(y)
	c.MarkOutput(z)
	res, err := HammingDistance(c, []bool{false}, HDOptions{Patterns: 1 << 12, WrongKeys: 1, Rand: rng.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.HDPercent != 50 {
		t.Fatalf("HD = %.2f%%, want exactly 50", res.HDPercent)
	}
	if res.AvgFlippedOutputs != 1 {
		t.Fatalf("avg flipped outputs = %.2f, want 1", res.AvgFlippedOutputs)
	}
}

func TestHDWeightedBeatsSARLock(t *testing.T) {
	// The paper's motivation: weighted locking has high output
	// corruptibility, SAT-resistant point functions have almost none.
	orig := circuits.RippleAdder(6)
	wll, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 12, ControlWidth: 3, KeyGates: 12, Rand: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	sar, err := lock.SARLock(orig, 0, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	opts := HDOptions{Patterns: 1 << 12, WrongKeys: 4, Rand: rng.New(5)}
	wllHD, err := HammingDistance(wll.Circuit, wll.Key, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Rand = rng.New(6)
	sarHD, err := HammingDistance(sar.Circuit, sar.Key, opts)
	if err != nil {
		t.Fatal(err)
	}
	if wllHD.HDPercent < 10 {
		t.Fatalf("weighted locking HD = %.2f%%, expected substantial corruption", wllHD.HDPercent)
	}
	if sarHD.HDPercent > 1 {
		t.Fatalf("SARLock HD = %.2f%%, expected near zero", sarHD.HDPercent)
	}
	if wllHD.HDPercent < 20*sarHD.HDPercent {
		t.Fatalf("weighted (%.2f%%) should dwarf SARLock (%.2f%%)", wllHD.HDPercent, sarHD.HDPercent)
	}
}

func TestHDValidation(t *testing.T) {
	c := circuits.C17()
	if _, err := HammingDistance(c, nil, HDOptions{Rand: rng.New(1)}); err == nil {
		t.Fatal("unkeyed circuit accepted")
	}
	locked, _ := lock.RandomXOR(c, 3, rng.New(2))
	if _, err := HammingDistance(locked.Circuit, []bool{true}, HDOptions{Rand: rng.New(3)}); err == nil {
		t.Fatal("wrong key width accepted")
	}
	if _, err := HammingDistance(locked.Circuit, locked.Key, HDOptions{}); err == nil {
		t.Fatal("missing Rand accepted")
	}
}

func TestHDDeterministic(t *testing.T) {
	orig := circuits.RippleAdder(4)
	l, _ := lock.RandomXOR(orig, 5, rng.New(7))
	a, err := HammingDistance(l.Circuit, l.Key, HDOptions{Patterns: 1 << 10, WrongKeys: 3, Rand: rng.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HammingDistance(l.Circuit, l.Key, HDOptions{Patterns: 1 << 10, WrongKeys: 3, Rand: rng.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if a.HDPercent != b.HDPercent {
		t.Fatalf("HD not deterministic: %v vs %v", a.HDPercent, b.HDPercent)
	}
}

func TestHDPatternRounding(t *testing.T) {
	orig := circuits.RippleAdder(4)
	l, _ := lock.RandomXOR(orig, 5, rng.New(9))
	res, err := HammingDistance(l.Circuit, l.Key, HDOptions{Patterns: 100, WrongKeys: 1, Rand: rng.New(10)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != 4096 {
		t.Fatalf("patterns = %d, want rounded-up 4096", res.Patterns)
	}
}

func BenchmarkHammingDistanceB20Slice(b *testing.B) {
	prof, _ := benchgen.ProfileByName("b20")
	circuit, err := benchgen.Generate(prof.Scale(0.05), 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{KeyBits: 48, ControlWidth: 3, Rand: rng.New(2)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HammingDistance(l.Circuit, l.Key, HDOptions{
			Patterns: 1 << 12, WrongKeys: 4, Rand: rng.New(3),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHammingDistanceTableI times the heaviest HD measurement of
// the perfbench tables workload: the Table I weighted lock of
// s38417@0.1 at the default 2^18 patterns and 8 wrong keys, on one
// worker as Table I's rows run it.
func BenchmarkHammingDistanceTableI(b *testing.B) {
	prof, err := benchgen.ProfileByName("s38417")
	if err != nil {
		b.Fatal(err)
	}
	scaled := prof.Scale(0.1)
	circuit, err := benchgen.Generate(scaled, 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits: scaled.LFSRSize, ControlWidth: scaled.CtrlInputs, Rand: rng.New(2),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HammingDistance(l.Circuit, l.Key, HDOptions{Workers: 1, Rand: rng.New(3)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHDWorkerCountInvariance(t *testing.T) {
	// The tentpole regression guard: the measurement must be bit-identical
	// at any worker count, because every block draws from its own
	// substream and the reduction is ordered by block index.
	orig := circuits.RippleAdder(8)
	l, err := lock.Weighted(orig, lock.WeightedOptions{KeyBits: 12, ControlWidth: 3, KeyGates: 12, Rand: rng.New(31)})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) HDResult {
		res, err := HammingDistance(l.Circuit, l.Key, HDOptions{
			Patterns: 1 << 15, WrongKeys: 4,
			Workers: workers, Rand: rng.New(32),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != serial {
			t.Fatalf("Workers=%d result %+v differs from serial %+v", w, got, serial)
		}
	}
}

// referenceHD is the measurement without the key-only partition: for
// every block, SetKey and a full Run of the whole program under the
// correct key and under each wrong key. It draws the wrong keys and
// splits the pattern substreams exactly as HammingDistance does, and
// runs the blocks serially.
func referenceHD(locked *netlist.Circuit, correctKey []bool, opts HDOptions) (HDResult, error) {
	if err := opts.fill(); err != nil {
		return HDResult{}, err
	}
	prog, err := ir.Compile(locked)
	if err != nil {
		return HDResult{}, err
	}
	var wrong [][]bool
	for len(wrong) < opts.WrongKeys {
		k := make([]bool, len(correctKey))
		opts.Rand.Bits(k)
		for i := range k {
			if k[i] != correctKey[i] {
				wrong = append(wrong, k)
				break
			}
		}
	}
	const blockPatterns = blockWords * 64
	blocks := (opts.Patterns + blockPatterns - 1) / blockPatterns
	blockRand := opts.Rand.Split(blocks)
	eval, err := sim.ForProgram(prog, blockWords)
	if err != nil {
		return HDResult{}, err
	}
	good := make([][]uint64, locked.NumOutputs())
	var diff int64
	for b := 0; b < blocks; b++ {
		eval.RandomizeInputs(blockRand[b])
		if err := eval.SetKey(correctKey); err != nil {
			return HDResult{}, err
		}
		eval.Run()
		for i, id := range locked.POs {
			good[i] = append(good[i][:0], eval.Value(id)...)
		}
		for _, k := range wrong {
			if err := eval.SetKey(k); err != nil {
				return HDResult{}, err
			}
			eval.Run()
			for i, id := range locked.POs {
				diff += int64(sim.DiffBits(eval.Value(id), good[i], blockPatterns))
			}
		}
	}
	total := int64(blocks*blockPatterns) * int64(len(wrong)) * int64(locked.NumOutputs())
	hd := 100 * float64(diff) / float64(total)
	return HDResult{
		HDPercent:         hd,
		Patterns:          blocks * blockPatterns,
		WrongKeys:         len(wrong),
		AvgFlippedOutputs: hd / 100 * float64(locked.NumOutputs()),
	}, nil
}

// hdCase is one locked circuit of the reference comparison.
type hdCase struct {
	name string
	c    *netlist.Circuit
	key  []bool
}

// hdEdgeCases builds small two-key-bit circuits whose key-only partition
// has an unusual shape.
func hdEdgeCases() []hdCase {
	var cases []hdCase
	build := func(name string, body func(c *netlist.Circuit, a, b, k0, k1 int)) {
		c := netlist.New(name)
		a, _ := c.AddInput("a")
		b, _ := c.AddInput("b")
		k0, _ := c.AddKeyInput("keyinput0")
		k1, _ := c.AddKeyInput("keyinput1")
		body(c, a, b, k0, k1)
		cases = append(cases, hdCase{name, c, []bool{true, false}})
	}
	build("key-to-output", func(c *netlist.Circuit, a, b, k0, k1 int) {
		c.MarkOutput(k0)
		c.MarkOutput(c.MustAddGate(netlist.Xor, "y", a, k1))
		c.MarkOutput(c.MustAddGate(netlist.And, "z", a, b))
	})
	build("key-only-output", func(c *netlist.Circuit, a, b, k0, k1 int) {
		ctrl := c.MustAddGate(netlist.Nand, "ctrl", k0, k1)
		c.MarkOutput(ctrl)
		c.MarkOutput(c.MustAddGate(netlist.Xnor, "y", a, ctrl))
		c.MarkOutput(c.MustAddGate(netlist.Or, "z", b, ctrl))
		c.MarkOutput(ctrl)
	})
	build("const-in-key-cone", func(c *netlist.Circuit, a, b, k0, k1 int) {
		one, _ := c.AddConst(true, "one")
		zero, _ := c.AddConst(false, "zero")
		ctrl := c.MustAddGate(netlist.And, "ctrl", k0, one, k1)
		dead := c.MustAddGate(netlist.Or, "dead", k0, zero)
		c.MarkOutput(c.MustAddGate(netlist.Xor, "y", a, ctrl))
		c.MarkOutput(c.MustAddGate(netlist.Nor, "z", b, dead, zero))
		c.MarkOutput(one)
	})
	build("wide-gate-in-fanout", func(c *netlist.Circuit, a, b, k0, k1 int) {
		d, _ := c.AddInput("d")
		kg := c.MustAddGate(netlist.Xor, "kg", d, k0)
		w := c.MustAddGate(netlist.Nand, "w", a, b, kg, k1)
		c.MarkOutput(c.MustAddGate(netlist.Xnor, "y", w, a, b, d))
		c.MarkOutput(c.MustAddGate(netlist.Nor, "z", kg, a, b, d, k1))
	})
	build("input-to-output", func(c *netlist.Circuit, a, b, k0, k1 int) {
		c.MarkOutput(a)
		c.MarkOutput(c.MustAddGate(netlist.Xor, "y", b, c.MustAddGate(netlist.Or, "ctrl", k0, k1)))
		c.MarkOutput(a)
	})
	return cases
}

// TestHDMatchesReference checks the key-only kernel against the full
// evaluation per key, field for field, at one and two workers, on the
// five locking schemes (weighted at control widths 1, 3 and 5) and on
// hand-built partition shapes.
func TestHDMatchesReference(t *testing.T) {
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	base, err := benchgen.Generate(prof.Scale(0.01), 4)
	if err != nil {
		t.Fatal(err)
	}
	var cases []hdCase
	add := func(name string, l *lock.Locked, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, hdCase{name, l.Circuit, l.Key})
	}
	for _, w := range []int{1, 3, 5} {
		l, err := lock.Weighted(base, lock.WeightedOptions{KeyBits: 15, ControlWidth: w, Rand: rng.New(uint64(w))})
		add(fmt.Sprintf("weighted-w%d", w), l, err)
	}
	l, err := lock.RandomXOR(base, 12, rng.New(6))
	add("randomxor", l, err)
	l, err = lock.SARLock(base, 6, rng.New(7))
	add("sarlock", l, err)
	l, err = lock.AntiSAT(base, 4, rng.New(8))
	add("antisat", l, err)
	l, err = lock.TTLock(base, 6, rng.New(9))
	add("ttlock", l, err)
	for _, tc := range append(cases, hdEdgeCases()...) {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(workers int) HDOptions {
				return HDOptions{Patterns: 3 * blockWords * 64, WrongKeys: 5, Workers: workers, Rand: rng.New(11)}
			}
			want, err := referenceHD(tc.c, tc.key, opts(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				got, err := HammingDistance(tc.c, tc.key, opts(workers))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Workers=%d: %+v, reference %+v", workers, got, want)
				}
			}
		})
	}
}
