// Package lfsr models the key-register LFSR at the heart of the OraP
// scheme (Fig. 1 of the paper).
//
// The register is a Galois-style linear feedback shift register with two
// kinds of XOR points:
//
//   - feedback taps defined by the characteristic polynomial (the paper
//     uses "a new tap after every eight LFSR cells"), and
//   - reseeding points through which multi-bit seeds from the tamper-proof
//     memory (the "key sequence") are XOR-injected while the register
//     shifts.
//
// Unlocking is a multi-cycle process: seeds interleaved with free-run
// cycles are fed in; the final register state is the circuit key. Because
// the register is linear, the package also provides a symbolic simulator
// that expresses every cell as a GF(2)-linear combination of the injected
// bits. The defender uses it to synthesize key sequences (orap package);
// the attacker of scenario (d) uses it to size the XOR trees a Trojan
// would need (trojan package).
package lfsr

import (
	"fmt"

	"orap/internal/gf2"
)

// Config describes the wiring of a key-register LFSR.
type Config struct {
	// N is the number of cells (= key width).
	N int
	// Taps lists the cell indices whose input XORs the feedback bit
	// (the last cell's output). Cell 0 always receives the feedback.
	Taps []int
	// Inject lists the cell indices that have a reseeding XOR point.
	// The seed word fed at each seeded cycle has len(Inject) bits,
	// seed bit i entering at cell Inject[i].
	Inject []int
}

// StandardTaps returns tap positions with one tap every `spacing` cells,
// matching the paper's polynomial choice (spacing 8). Cell 0's implicit
// feedback is not included in the returned list.
func StandardTaps(n, spacing int) []int {
	var taps []int
	for i := spacing; i < n; i += spacing {
		taps = append(taps, i)
	}
	return taps
}

// AllInject returns injection points at every cell, the "most general case"
// of Fig. 1.
func AllInject(n int) []int {
	pts := make([]int, n)
	for i := range pts {
		pts[i] = i
	}
	return pts
}

// EveryKthInject returns injection points at cells 0, k, 2k, ….
func EveryKthInject(n, k int) []int {
	var pts []int
	for i := 0; i < n; i += k {
		pts = append(pts, i)
	}
	return pts
}

// Validate checks the configuration for out-of-range or duplicate indices.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("lfsr: N must be positive, got %d", c.N)
	}
	seen := make(map[int]bool)
	for _, t := range c.Taps {
		if t <= 0 || t >= c.N {
			return fmt.Errorf("lfsr: tap %d out of range (1..%d)", t, c.N-1)
		}
		if seen[t] {
			return fmt.Errorf("lfsr: duplicate tap %d", t)
		}
		seen[t] = true
	}
	seen = make(map[int]bool)
	for _, p := range c.Inject {
		if p < 0 || p >= c.N {
			return fmt.Errorf("lfsr: injection point %d out of range (0..%d)", p, c.N-1)
		}
		if seen[p] {
			return fmt.Errorf("lfsr: duplicate injection point %d", p)
		}
		seen[p] = true
	}
	return nil
}

// SeedWidth returns the number of bits injected per seeded cycle.
func (c Config) SeedWidth() int { return len(c.Inject) }

// LFSR is a concrete (bit-valued) key-register LFSR.
type LFSR struct {
	cfg    Config
	state  gf2.Vec
	isTap  []bool
	injIdx []int // cell -> seed-bit index, -1 when not an injection point
}

// New returns an LFSR in the all-zero state (the state after a
// pulse-generator reset).
func New(cfg Config) (*LFSR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &LFSR{
		cfg:    cfg,
		state:  gf2.NewVec(cfg.N),
		isTap:  make([]bool, cfg.N),
		injIdx: make([]int, cfg.N),
	}
	for i := range l.injIdx {
		l.injIdx[i] = -1
	}
	for _, t := range cfg.Taps {
		l.isTap[t] = true
	}
	for i, p := range cfg.Inject {
		l.injIdx[p] = i
	}
	return l, nil
}

// State returns a copy of the current register contents.
func (l *LFSR) State() gf2.Vec { return l.state.Clone() }

// SetState overwrites the register contents (used in tests and in Trojan
// scenarios where the attacker preserves the state).
func (l *LFSR) SetState(s gf2.Vec) error {
	if s.Len() != l.cfg.N {
		return fmt.Errorf("lfsr: state width %d != N %d", s.Len(), l.cfg.N)
	}
	l.state = s.Clone()
	return nil
}

// Step advances the register one clock with the given seed word XORed in at
// the injection points. A nil or all-zero seed is a free-run cycle.
// The seed must have SeedWidth bits when non-nil.
func (l *LFSR) Step(seed gf2.Vec) error {
	if seed.Len() != 0 && seed.Len() != l.cfg.SeedWidth() {
		return fmt.Errorf("lfsr: seed width %d != %d", seed.Len(), l.cfg.SeedWidth())
	}
	next := gf2.NewVec(l.cfg.N)
	fb := l.state.Bit(l.cfg.N - 1)
	for i := 0; i < l.cfg.N; i++ {
		var v bool
		if i == 0 {
			v = fb
		} else {
			v = l.state.Bit(i - 1)
			if l.isTap[i] {
				v = v != fb
			}
		}
		if j := l.injIdx[i]; j >= 0 && seed.Len() != 0 {
			v = v != seed.Bit(j)
		}
		next.SetBit(i, v)
	}
	l.state = next
	return nil
}
