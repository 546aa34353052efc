package lfsr

import (
	"fmt"

	"orap/internal/gf2"
)

// Symbolic simulates the LFSR with GF(2)-linear expressions instead of
// bits: every cell holds a linear combination of "variables" (the seed
// bits injected so far). This is exactly the symbolic simulation the paper
// describes in attack scenario (d), and it doubles as the defender's tool
// for synthesizing key sequences, because the final state is
//
//	state = M · vars
//
// for the matrix M accumulated over the stepped schedule.
type Symbolic struct {
	cfg    Config
	nvars  int
	cells  []gf2.Vec // cells[i] = linear expression of cell i over vars
	isTap  []bool
	injIdx []int
}

// newSymbolic returns a symbolic LFSR over nvars variables, starting from
// the all-zero (reset) state.
func newSymbolic(cfg Config, nvars int) (*Symbolic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Symbolic{
		cfg:    cfg,
		nvars:  nvars,
		cells:  make([]gf2.Vec, cfg.N),
		isTap:  make([]bool, cfg.N),
		injIdx: make([]int, cfg.N),
	}
	for i := range s.cells {
		s.cells[i] = gf2.NewVec(nvars)
	}
	for i := range s.injIdx {
		s.injIdx[i] = -1
	}
	for _, t := range cfg.Taps {
		s.isTap[t] = true
	}
	for i, p := range cfg.Inject {
		s.injIdx[p] = i
	}
	return s, nil
}

// stepVars advances one clock, injecting variable seedVars[j] at injection
// point j. A negative entry means "no variable" (constant zero) at that
// point; a nil slice is a free-run cycle. Variable indices must be < nvars.
func (s *Symbolic) stepVars(seedVars []int) error {
	if seedVars != nil && len(seedVars) != s.cfg.SeedWidth() {
		return fmt.Errorf("lfsr: seedVars width %d != %d", len(seedVars), s.cfg.SeedWidth())
	}
	next := make([]gf2.Vec, s.cfg.N)
	fb := s.cells[s.cfg.N-1]
	for i := 0; i < s.cfg.N; i++ {
		var e gf2.Vec
		if i == 0 {
			e = fb.Clone()
		} else {
			e = s.cells[i-1].Clone()
			if s.isTap[i] {
				e.Xor(fb)
			}
		}
		if j := s.injIdx[i]; j >= 0 && seedVars != nil {
			v := seedVars[j]
			if v >= s.nvars {
				return fmt.Errorf("lfsr: variable %d out of range (nvars=%d)", v, s.nvars)
			}
			if v >= 0 {
				e.FlipBit(v)
			}
		}
		next[i] = e
	}
	s.cells = next
	return nil
}

// freeRun advances n clocks with no injection.
func (s *Symbolic) freeRun(n int) {
	for i := 0; i < n; i++ {
		s.stepVars(nil)
	}
}

// matrix returns the N×nvars matrix M with state = M · vars for the
// schedule stepped so far.
func (s *Symbolic) matrix() *gf2.Matrix {
	m := gf2.NewMatrix(s.cfg.N, s.nvars)
	for i, c := range s.cells {
		m.SetRow(i, c)
	}
	return m
}

// Schedule describes an unlock sequence: len(FreeRunAfter) seeds are fed,
// with FreeRunAfter[i] free-run cycles after seed i (the last entry gives
// the free-run cycles after the final seed, which the paper allows too).
type Schedule struct {
	FreeRunAfter []int
}

// NumSeeds returns the number of seeded cycles.
func (sc Schedule) NumSeeds() int { return len(sc.FreeRunAfter) }

// TotalCycles returns the number of clock cycles the schedule takes.
func (sc Schedule) TotalCycles() int {
	t := len(sc.FreeRunAfter)
	for _, f := range sc.FreeRunAfter {
		t += f
	}
	return t
}

// UniformSchedule returns a schedule of `seeds` seeded cycles with the same
// number of free-run cycles after each.
func UniformSchedule(seeds, freeRun int) Schedule {
	fr := make([]int, seeds)
	for i := range fr {
		fr[i] = freeRun
	}
	return Schedule{FreeRunAfter: fr}
}

// TransferMatrix computes the linear map from all injected seed bits to the
// final LFSR state for the given schedule: it returns M such that
//
//	finalState = M · seeds
//
// where seeds stacks the seed words in feeding order (seed i occupies
// variable indices [i·w, (i+1)·w) for w = cfg.SeedWidth()).
func TransferMatrix(cfg Config, sc Schedule) (*gf2.Matrix, error) {
	w := cfg.SeedWidth()
	sym, err := newSymbolic(cfg, w*sc.NumSeeds())
	if err != nil {
		return nil, err
	}
	for i, fr := range sc.FreeRunAfter {
		vars := make([]int, w)
		for j := range vars {
			vars[j] = i*w + j
		}
		if err := sym.stepVars(vars); err != nil {
			return nil, err
		}
		sym.freeRun(fr)
	}
	return sym.matrix(), nil
}

// MemTransferMatrix computes the linear map from memory-seed bits to the
// final LFSR state for a schedule where injection happens on seeded cycles
// only at the given positions (indices into cfg.Inject) — the memory-driven
// subset of the reseeding points in the OraP schemes. The returned matrix M
// satisfies finalState = M · seeds with seed i occupying variable indices
// [i·w, (i+1)·w) for w = len(memInject). Its GF(2) rank is the effective
// key entropy of the schedule: rank < cfg.N means some register states are
// unreachable from memory, shrinking the key space an attacker must search.
func MemTransferMatrix(cfg Config, sc Schedule, memInject []int) (*gf2.Matrix, error) {
	w := len(memInject)
	sym, err := newSymbolic(cfg, w*sc.NumSeeds())
	if err != nil {
		return nil, err
	}
	full := make([]int, len(cfg.Inject))
	for i, fr := range sc.FreeRunAfter {
		for j := range full {
			full[j] = -1
		}
		for j, pos := range memInject {
			if pos < 0 || pos >= len(cfg.Inject) {
				return nil, fmt.Errorf("lfsr: memInject position %d out of range (have %d injection points)", pos, len(cfg.Inject))
			}
			full[pos] = i*w + j
		}
		if err := sym.stepVars(full); err != nil {
			return nil, err
		}
		sym.freeRun(fr)
	}
	return sym.matrix(), nil
}
