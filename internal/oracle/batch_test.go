package oracle

import (
	"bytes"
	"fmt"
	"testing"

	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/rng"
	"orap/internal/scan"
)

// drawBatch fills a bit-sliced batch with n random patterns, one r.Bits
// draw per pattern, and returns the scalar patterns in draw order.
func drawBatch(r *rng.Stream, inputs, n int) ([]uint64, [][]bool) {
	in := make([]uint64, inputs)
	pats := make([][]bool, n)
	x := make([]bool, inputs)
	for p := 0; p < n; p++ {
		r.Bits(x)
		pats[p] = append([]bool(nil), x...)
		PackPattern(in, p, x)
	}
	return in, pats
}

// setUnusedLanes sets every input bit in lanes n..63, so a response
// that leaks an unused lane shows up as a set bit above lane n.
func setUnusedLanes(in []uint64, n int) {
	for i := range in {
		in[i] |= ^LaneMask(n)
	}
}

// assertLanes requires lane p of the batched response out to equal
// want[p] bit for bit, and every lane at and above len(want) to be zero.
func assertLanes(t *testing.T, out []uint64, want [][]bool) {
	t.Helper()
	got := make([]bool, len(out))
	for p, w := range want {
		UnpackPattern(out, p, got)
		if !bytes.Equal(boolBytes(got), boolBytes(w)) {
			t.Fatalf("pattern %d: batched response %v, reference %v", p, got, w)
		}
	}
	for j, word := range out {
		if word&^LaneMask(len(want)) != 0 {
			t.Fatalf("output %d has bits set above lane %d", j, len(want))
		}
	}
}

// scalarScanQuery is the reference scan query: scan in – capture – scan
// out for one pattern, driven through the chip's scalar protocol. The
// batched oracle must answer every lane as this does and leave the chip
// in the state it leaves.
func scalarScanQuery(ch *scan.Chip, x []bool) ([]bool, error) {
	cfg := ch.Config()
	ch.SetScanEnable(true) // rising edge: OraP clears the key register
	if err := ch.ScanInFFs(x[cfg.RealPIs:]); err != nil {
		return nil, err
	}
	ch.SetScanEnable(false)
	pinOut, err := ch.CaptureClock(x[:cfg.RealPIs])
	if err != nil {
		return nil, err
	}
	ch.SetScanEnable(true)
	ffOut, err := ch.ScanOutFFs()
	ch.SetScanEnable(false)
	if err != nil {
		return nil, err
	}
	return append(pinOut, ffOut...), nil
}

func TestQueryWordsMatchesScalarComb(t *testing.T) {
	c := circuits.RippleAdder(6)
	prog := ir.MustCompile(c)
	for _, n := range []int{1, 7, 64} {
		o, err := NewComb(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		in, pats := drawBatch(rng.New(uint64(n)+10), o.NumInputs(), n)
		setUnusedLanes(in, n)
		out, err := o.QueryWords(in, n)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]bool, n)
		for p, x := range pats {
			if want[p], err = prog.Eval(x, nil); err != nil {
				t.Fatal(err)
			}
		}
		assertLanes(t, out, want)
		if o.Queries() != n {
			t.Fatalf("batch of %d counted %d queries", n, o.Queries())
		}
	}
}

func TestQueryWordsMatchesScalarScanAndOraP(t *testing.T) {
	// The batched scan path must replay the full per-pattern protocol: on
	// the unprotected chip responses carry the correct key, on OraP chips
	// every pattern in the batch sees the self-cleared register.
	for _, prot := range []scan.Protection{scan.None, scan.OraPBasic, scan.OraPModified} {
		for _, n := range []int{1, 5, 64} {
			t.Run(fmt.Sprintf("%v/n=%d", prot, n), func(t *testing.T) {
				_, _, chA := protectedChip(t, prot, 21)
				_, _, chB := protectedChip(t, prot, 21)
				a := NewScan(chA)
				in, pats := drawBatch(rng.New(uint64(n)), a.NumInputs(), n)
				setUnusedLanes(in, n)
				out, err := a.QueryWords(in, n)
				if err != nil {
					t.Fatal(err)
				}
				want := make([][]bool, n)
				for p, x := range pats {
					if want[p], err = scalarScanQuery(chB, x); err != nil {
						t.Fatal(err)
					}
				}
				assertLanes(t, out, want)
				if a.Queries() != n {
					t.Fatalf("batch of %d counted %d queries", n, a.Queries())
				}
				// The chips must also end in identical state: same key
				// register, same scan-cycle bill, same unlocked flag.
				if !bytes.Equal(boolBytes(chA.Key()), boolBytes(chB.Key())) {
					t.Fatal("key register differs between batched and scalar chips")
				}
				if chA.Cycles() != chB.Cycles() {
					t.Fatalf("cycle accounting differs: batched %d, scalar %d", chA.Cycles(), chB.Cycles())
				}
				if chA.Unlocked() != chB.Unlocked() {
					t.Fatal("unlocked bookkeeping differs between batched and scalar chips")
				}
			})
		}
	}
}

func TestScanBatchFollowedByScalarQueriesAgree(t *testing.T) {
	// A batch must leave the chip as the same patterns sent one by one
	// would: a scalar query after it answers exactly as on a chip that
	// saw only scalar queries.
	_, _, chA := protectedChip(t, scan.OraPBasic, 33)
	_, _, chB := protectedChip(t, scan.OraPBasic, 33)
	a := NewScan(chA)
	in, pats := drawBatch(rng.New(7), a.NumInputs(), 17)
	if _, err := a.QueryWords(in, 17); err != nil {
		t.Fatal(err)
	}
	for _, x := range pats {
		if _, err := scalarScanQuery(chB, x); err != nil {
			t.Fatal(err)
		}
	}
	x := make([]bool, a.NumInputs())
	rng.New(8).Bits(x)
	ya, err := scalarScanQuery(chA, x)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := scalarScanQuery(chB, x)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(boolBytes(ya), boolBytes(yb)) {
		t.Fatal("scalar query after a batch differs from the all-scalar chip")
	}
	if chA.Cycles() != chB.Cycles() {
		t.Fatalf("cycles differ after mixed channels: %d vs %d", chA.Cycles(), chB.Cycles())
	}
}

func TestQueryWordsErrorPaths(t *testing.T) {
	c := circuits.C17()
	o, _ := NewComb(c, nil)
	if _, err := o.QueryWords(make([]uint64, 5), 0); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	if _, err := o.QueryWords(make([]uint64, 5), 65); err == nil {
		t.Fatal("batch size 65 accepted")
	}
	if _, err := o.QueryWords(make([]uint64, 3), 4); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if o.Queries() != 0 {
		t.Fatalf("rejected batches advanced the query count to %d", o.Queries())
	}
}

func FuzzQueryWordsMatchesScalar(f *testing.F) {
	f.Add(uint8(1), []byte{0x00})
	f.Add(uint8(64), []byte{0xff, 0x0f, 0xaa})
	f.Add(uint8(13), []byte{0x5a, 0xc3})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%64 + 1
		c := circuits.RippleAdder(3)
		prog := ir.MustCompile(c)
		o, err := NewComb(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		ni := c.NumInputs()
		in := make([]uint64, ni)
		want := make([][]bool, n)
		for p := 0; p < n; p++ {
			x := make([]bool, ni)
			for i := range x {
				bit := p*ni + i
				x[i] = bit/8 < len(data) && data[bit/8]>>(uint(bit)%8)&1 == 1
			}
			PackPattern(in, p, x)
			if want[p], err = prog.Eval(x, nil); err != nil {
				t.Fatal(err)
			}
		}
		setUnusedLanes(in, n)
		out, err := o.QueryWords(in, n)
		if err != nil {
			t.Fatal(err)
		}
		assertLanes(t, out, want)
	})
}

// faultyChip wraps a real chip and can fail the batched protocol, to
// check the oracle restores scan enable on the error path.
type faultyChip struct {
	*scan.Chip
	failBatch bool
}

func (f *faultyChip) ScanBatch(in []uint64, n int) ([]uint64, error) {
	if f.failBatch {
		f.Chip.SetScanEnable(true) // leave the chip mid-protocol
		return nil, fmt.Errorf("injected batch fault")
	}
	return f.Chip.ScanBatch(in, n)
}

func TestScanOracleRestoresScanEnableOnError(t *testing.T) {
	// Regression: a failed query used to return with scan enable still
	// asserted, so the next query's SetScanEnable(true) saw no rising
	// edge — on an OraP chip that skips the key-register clear.
	t.Run("batch", func(t *testing.T) {
		_, _, ch := protectedChip(t, scan.OraPBasic, 44)
		f := &faultyChip{Chip: ch, failBatch: true}
		o := &Scan{chip: f}
		if _, err := o.QueryWords(make([]uint64, o.NumInputs()), 4); err == nil {
			t.Fatal("injected fault did not surface")
		}
		if f.ScanEnable() {
			t.Fatal("scan enable left asserted after a failed query")
		}
		// The channel must be usable again right away.
		f.failBatch = false
		if _, err := Query(o, make([]bool, o.NumInputs())); err != nil {
			t.Fatalf("query after recovered fault failed: %v", err)
		}
	})
}

func boolBytes(bs []bool) []byte {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}
