package lfsr

import (
	"fmt"
	"testing"

	"orap/internal/gf2"
	"orap/internal/rng"
)

func cfg16() Config {
	return Config{N: 16, Taps: StandardTaps(16, 8), Inject: AllInject(16)}
}

func randSeed(r *rng.Stream, w int) gf2.Vec {
	v := gf2.NewVec(w)
	for i := 0; i < w; i++ {
		if r.Bool() {
			v.SetBit(i, true)
		}
	}
	return v
}

func TestConfigValidate(t *testing.T) {
	if err := cfg16().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{N: 0},
		{N: 8, Taps: []int{0}},      // tap 0 is implicit, not allowed
		{N: 8, Taps: []int{8}},      // out of range
		{N: 8, Taps: []int{3, 3}},   // duplicate
		{N: 8, Inject: []int{-1}},   // out of range
		{N: 8, Inject: []int{2, 2}}, // duplicate
		{N: 8, Inject: []int{8}},    // out of range
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStandardTapsSpacing(t *testing.T) {
	taps := StandardTaps(256, 8)
	if len(taps) != 31 {
		t.Fatalf("expected 31 taps for N=256 spacing=8, got %d", len(taps))
	}
	for i, tap := range taps {
		if tap != (i+1)*8 {
			t.Fatalf("tap %d = %d, want %d", i, tap, (i+1)*8)
		}
	}
}

func TestFreeRunFromZeroStaysZero(t *testing.T) {
	l, _ := New(cfg16())
	for i := 0; i < 100; i++ {
		l.Step(gf2.Vec{})
	}
	if !l.State().IsZero() {
		t.Fatal("LFSR left the zero state without injection")
	}
}

func TestStepIsLinear(t *testing.T) {
	// LFSR(a ^ b) after k steps == LFSR(a) ^ LFSR(b): linearity of the
	// whole machine, the property the paper's attack (d) exploits.
	cfg := cfg16()
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		seedsA := []gf2.Vec{randSeed(r, 16), randSeed(r, 16), randSeed(r, 16)}
		seedsB := []gf2.Vec{randSeed(r, 16), randSeed(r, 16), randSeed(r, 16)}
		seedsAB := make([]gf2.Vec, 3)
		for i := range seedsAB {
			seedsAB[i] = seedsA[i].Clone()
			seedsAB[i].Xor(seedsB[i])
		}
		sc := UniformSchedule(3, 2)
		sa, err := runSchedule(cfg, sc, seedsA)
		if err != nil {
			t.Fatal(err)
		}
		sb, _ := runSchedule(cfg, sc, seedsB)
		sab, _ := runSchedule(cfg, sc, seedsAB)
		sum := sa.Clone()
		sum.Xor(sb)
		if !sum.Equal(sab) {
			t.Fatalf("trial %d: LFSR is not linear", trial)
		}
	}
}

func TestSymbolicMatchesConcrete(t *testing.T) {
	cfg := Config{N: 24, Taps: StandardTaps(24, 8), Inject: []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}}
	sc := Schedule{FreeRunAfter: []int{0, 3, 1, 5}}
	w := cfg.SeedWidth()

	m, err := TransferMatrix(cfg, sc, AllInject(cfg.SeedWidth()))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for trial := 0; trial < 25; trial++ {
		seeds := make([]gf2.Vec, sc.NumSeeds())
		stacked := gf2.NewVec(w * sc.NumSeeds())
		for i := range seeds {
			seeds[i] = randSeed(r, w)
			for j := 0; j < w; j++ {
				if seeds[i].Bit(j) {
					stacked.SetBit(i*w+j, true)
				}
			}
		}
		concrete, err := runSchedule(cfg, sc, seeds)
		if err != nil {
			t.Fatal(err)
		}
		symbolic := m.MulVec(stacked)
		if !concrete.Equal(symbolic) {
			t.Fatalf("trial %d: symbolic state %v != concrete %v", trial, symbolic, concrete)
		}
	}
}

func TestTransferMatrixFullRankWithEnoughSeeds(t *testing.T) {
	// With injection at every cell, a single seed already spans the state
	// space, so the transfer matrix must have full rank N: every key is
	// reachable by some key sequence.
	cfg := cfg16()
	m, err := TransferMatrix(cfg, UniformSchedule(1, 0), AllInject(cfg.SeedWidth()))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Rank(); got != 16 {
		t.Fatalf("rank = %d, want 16", got)
	}
}

func TestTransferMatrixSparseInjectionNeedsMoreSeeds(t *testing.T) {
	// With injection every 4 cells (width 4), one seed cannot reach all
	// 16-bit states, but enough seeded cycles with mixing can.
	cfg := Config{N: 16, Taps: StandardTaps(16, 8), Inject: []int{0, 4, 8, 12}}
	m1, err := TransferMatrix(cfg, UniformSchedule(1, 0), AllInject(cfg.SeedWidth()))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Rank() >= 16 {
		t.Fatalf("one 4-bit seed cannot give rank 16, got %d", m1.Rank())
	}
	m4, err := TransferMatrix(cfg, UniformSchedule(4, 0), AllInject(cfg.SeedWidth()))
	if err != nil {
		t.Fatal(err)
	}
	if m4.Rank() != 16 {
		t.Fatalf("4 back-to-back seeds should reach full rank, got %d", m4.Rank())
	}
	// A seed period sharing a factor with the injection spacing aliases:
	// with one free-run cycle between seeds (period 2, spacing 4), seed
	// bits only ever reach half the cells, capping the rank at 8. This is
	// why the designer must co-pick spacing and free-run counts.
	m8, err := TransferMatrix(cfg, UniformSchedule(8, 1), AllInject(cfg.SeedWidth()))
	if err != nil {
		t.Fatal(err)
	}
	if m8.Rank() != 8 {
		t.Fatalf("aliased schedule rank = %d, want 8", m8.Rank())
	}
}

func TestSeedWidthChecked(t *testing.T) {
	l, _ := New(cfg16())
	if err := l.Step(gf2.NewVec(5)); err == nil {
		t.Fatal("Step accepted wrong seed width")
	}
	if _, err := runSchedule(cfg16(), UniformSchedule(2, 0), []gf2.Vec{gf2.NewVec(16)}); err == nil {
		t.Fatal("runSchedule accepted wrong seed count")
	}
}

func TestSetState(t *testing.T) {
	l, _ := New(cfg16())
	s := gf2.NewVec(16)
	s.SetBit(5, true)
	if err := l.SetState(s); err != nil {
		t.Fatal(err)
	}
	if !l.State().Equal(s) {
		t.Fatal("SetState did not stick")
	}
	if err := l.SetState(gf2.NewVec(8)); err == nil {
		t.Fatal("SetState accepted wrong width")
	}
}

func TestScheduleAccounting(t *testing.T) {
	sc := Schedule{FreeRunAfter: []int{2, 0, 5}}
	if sc.NumSeeds() != 3 {
		t.Fatalf("NumSeeds = %d", sc.NumSeeds())
	}
	if sc.TotalCycles() != 3+7 {
		t.Fatalf("TotalCycles = %d, want 10", sc.TotalCycles())
	}
}

func TestSymbolicStepExprs(t *testing.T) {
	// A variable injected at a point must shift along the register as
	// the same linear expression.
	cfg := Config{N: 4, Inject: []int{0}}
	s, err := newSymbolic(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := gf2.NewVec(2)
	e.SetBit(1, true)
	if err := s.stepVars([]int{1}); err != nil {
		t.Fatal(err)
	}
	if !s.cells[0].Equal(e) {
		t.Fatalf("cell 0 = %v, want %v", s.cells[0], e)
	}
	s.freeRun(2)
	if !s.cells[2].Equal(e) {
		t.Fatalf("after 2 shifts, cell 2 = %v, want %v", s.cells[2], e)
	}
}

func TestSymbolicRejectsBadVariable(t *testing.T) {
	cfg := Config{N: 4, Inject: []int{0}}
	s, _ := newSymbolic(cfg, 2)
	if err := s.stepVars([]int{5}); err == nil {
		t.Fatal("stepVars accepted out-of-range variable")
	}
}

func BenchmarkTransferMatrix256(b *testing.B) {
	cfg := Config{N: 256, Taps: StandardTaps(256, 8), Inject: AllInject(256)}
	sc := UniformSchedule(4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TransferMatrix(cfg, sc, AllInject(cfg.SeedWidth())); err != nil {
			b.Fatal(err)
		}
	}
}

// runSchedule feeds the given seeds through a concrete LFSR following the
// schedule and returns the final state. len(seeds) must equal sc.NumSeeds()
// and every seed must have cfg.SeedWidth() bits.
func runSchedule(cfg Config, sc Schedule, seeds []gf2.Vec) (gf2.Vec, error) {
	if len(seeds) != sc.NumSeeds() {
		return gf2.Vec{}, fmt.Errorf("lfsr: %d seeds for a %d-seed schedule", len(seeds), sc.NumSeeds())
	}
	l, err := New(cfg)
	if err != nil {
		return gf2.Vec{}, err
	}
	for i, fr := range sc.FreeRunAfter {
		if err := l.Step(seeds[i]); err != nil {
			return gf2.Vec{}, err
		}
		for c := 0; c < fr; c++ {
			l.Step(gf2.Vec{})
		}
	}
	return l.State(), nil
}
