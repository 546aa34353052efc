// Package orap implements the paper's contribution: the oracle-protection
// (OraP) logic-locking scheme.
//
// OraP does not corrupt outputs itself — it is combined with a
// conventional locking technique (the paper uses weighted logic locking)
// and protects the *oracle*: the key register is an LFSR whose cells are
// cleared by pulse generators whenever scan enable rises, so the scan in –
// capture – scan out flow every oracle-guided attack relies on only ever
// observes the locked circuit.
//
// Unlocking is a multi-cycle reseeding process. The values stored in
// tamper-proof memory (the "key sequence") are seeds; none of them is the
// key. This package synthesizes a key sequence realizing any target key:
// for the basic scheme (Fig. 1) this is one GF(2) linear solve over the
// LFSR's transfer matrix; for the modified scheme (Fig. 3), where circuit
// responses drive half the reseeding points, an exact sequential
// construction (exact.go) positions the register cycle by cycle — it
// works for any circuit because each cycle's response is determined
// before that cycle's seed is chosen. Every synthesized sequence is
// verified by simulating the unlock.
package orap

import (
	"fmt"

	"orap/internal/gf2"
	"orap/internal/lfsr"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/scan"
)

// tapSpacing is the characteristic-polynomial tap spacing: the paper
// puts a new tap after every eight cells. The modified scheme's
// synthesis needs it even.
const tapSpacing = 8

// Options tunes the OraP construction.
type Options struct {
	// Seeds is the number of seeded cycles in the unlock schedule.
	// Default for the basic scheme: 1, since every cell is a reseeding
	// point and one seed already reaches every key. The modified scheme
	// feeds max(Seeds, 4) seeds back to back.
	Seeds int
	// FreeRun is the number of free-run cycles after each seed.
	// Default 1. The modified scheme ignores it.
	FreeRun int
	// Rand drives tap selection and synthesis randomization; required.
	Rand *rng.Stream
}

func (o *Options) fill() error {
	if o.Rand == nil {
		return fmt.Errorf("orap: Options.Rand is required")
	}
	if o.FreeRun < 0 {
		return fmt.Errorf("orap: negative FreeRun")
	}
	if o.FreeRun == 0 {
		o.FreeRun = 1
	}
	return nil
}

// Protect builds a chip configuration that locks the given core behind the
// OraP scheme. The core must already carry a conventional locking layer
// (key inputs); key is its correct key, which the synthesized key sequence
// will reproduce in the LFSR at the end of the unlock schedule. realPIs
// and realPOs split the core's inputs/outputs into package pins and
// flip-flop connections (see scan.Config).
func Protect(core *netlist.Circuit, key []bool, realPIs, realPOs int, protection scan.Protection, opts Options) (scan.Config, error) {
	if err := opts.fill(); err != nil {
		return scan.Config{}, err
	}
	n := core.NumKeys()
	if n == 0 {
		return scan.Config{}, fmt.Errorf("orap: core %q has no key inputs to protect", core.Name)
	}
	if len(key) != n {
		return scan.Config{}, fmt.Errorf("orap: key width %d != core %d", len(key), n)
	}
	// The unprotected chip of the same core checks the pin split before
	// either synthesis indexes flip-flops by it.
	plain := scan.Config{
		Core:       core,
		RealPIs:    realPIs,
		RealPOs:    realPOs,
		Protection: scan.None,
		Key:        append([]bool(nil), key...),
	}
	if err := plain.Validate(); err != nil {
		return scan.Config{}, err
	}
	if protection != scan.None {
		// A cleared key register presents the all-zero key to the core;
		// if that were the correct key, the chip would answer correctly
		// in test mode and the whole protection would be void. A locking
		// layer with a random key hits this with probability 2^-n; reject
		// it outright.
		zero := true
		for _, b := range key {
			zero = zero && !b
		}
		if zero {
			return scan.Config{}, fmt.Errorf("orap: the all-zero key cannot be protected (it equals the cleared register); re-lock with a different key")
		}
	}
	switch protection {
	case scan.OraPBasic:
		return synthesizeBasic(core, key, realPIs, realPOs, opts)
	case scan.OraPModified:
		return synthesizeModified(core, key, realPIs, realPOs, opts)
	case scan.None:
		return plain, nil
	}
	return scan.Config{}, fmt.Errorf("orap: unknown protection %v", protection)
}

// lfsrConfig builds the register wiring for an n-bit key: a tap every
// tapSpacing cells and a reseeding point on every cell, the most general
// case of Fig. 1.
func lfsrConfig(n int) lfsr.Config {
	return lfsr.Config{
		N:      n,
		Taps:   lfsr.StandardTaps(n, tapSpacing),
		Inject: lfsr.AllInject(n),
	}
}

// splitSeeds unpacks a stacked seed vector into per-cycle seeds.
func splitSeeds(stacked gf2.Vec, seeds, width int) []gf2.Vec {
	out := make([]gf2.Vec, seeds)
	for i := range out {
		v := gf2.NewVec(width)
		for j := 0; j < width; j++ {
			if stacked.Bit(i*width + j) {
				v.SetBit(j, true)
			}
		}
		out[i] = v
	}
	return out
}

// synthesizeBasic builds the Fig. 1 scheme: all reseeding points are
// memory-driven and the key sequence is a single linear solve.
func synthesizeBasic(core *netlist.Circuit, key []bool, realPIs, realPOs int, opts Options) (scan.Config, error) {
	n := core.NumKeys()
	cfg := lfsrConfig(n)
	memInject := lfsr.AllInject(n) // every reseeding point is memory-driven
	sc := lfsr.UniformSchedule(max(opts.Seeds, 1), opts.FreeRun)
	m, err := lfsr.MemTransferMatrix(cfg, sc, memInject)
	if err != nil {
		return scan.Config{}, err
	}
	// Every cell is a reseeding point and the register step is
	// invertible, so the last seed alone reaches every state: the matrix
	// always has full rank n.
	if m.Rank() != n {
		return scan.Config{}, fmt.Errorf("orap: transfer matrix rank %d < %d (%d seeds, %d free-run)", m.Rank(), n, sc.NumSeeds(), opts.FreeRun)
	}
	stacked, ok := m.Solve(gf2.FromBools(key))
	if !ok {
		return scan.Config{}, fmt.Errorf("orap: full-rank transfer matrix unexpectedly unsolvable")
	}
	chipCfg := scan.Config{
		Core:       core,
		RealPIs:    realPIs,
		RealPOs:    realPOs,
		Protection: scan.OraPBasic,
		LFSR:       cfg,
		Schedule:   sc,
		Seeds:      splitSeeds(stacked, sc.NumSeeds(), len(memInject)),
		MemInject:  memInject,
	}
	if err := verifyUnlock(chipCfg, key); err != nil {
		return scan.Config{}, err
	}
	return chipCfg, nil
}

// verifyUnlock checks by simulation that a pristine chip built from cfg
// unlocks to exactly the expected key.
func verifyUnlock(cfg scan.Config, key []bool) error {
	ch, err := scan.New(cfg)
	if err != nil {
		return err
	}
	if err := ch.Unlock(nil); err != nil {
		return err
	}
	final, want := gf2.FromBools(ch.Key()), gf2.FromBools(key)
	if !final.Equal(want) {
		return fmt.Errorf("orap: synthesized key sequence unlocks to %v, want %v", final, want)
	}
	return nil
}
