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
// before that cycle's seed is chosen. Sparse injection layouts fall back
// to a linear solve over key-independent response taps, or to a
// randomized fixpoint when the whole state is key-entangled. Every
// synthesized sequence is verified by simulating the unlock.
package orap

import (
	"fmt"

	"orap/internal/gf2"
	"orap/internal/ir"
	"orap/internal/lfsr"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/scan"
)

// Options tunes the OraP construction.
type Options struct {
	// TapSpacing is the characteristic-polynomial tap spacing (paper: a
	// new tap after every eight cells). Default 8.
	TapSpacing int
	// InjectSpacing places a reseeding point every k-th cell. Default 1
	// (every cell, the most general case of Fig. 1).
	InjectSpacing int
	// Seeds is the number of seeded cycles in the unlock schedule.
	// Default: grown automatically until the memory-driven transfer
	// matrix reaches full rank.
	Seeds int
	// FreeRun is the number of free-run cycles after each seed.
	// Default 1.
	FreeRun int
	// MaxSynthesisRetries bounds re-attempts (with fresh response taps /
	// randomization) for the modified scheme. Default 8.
	MaxSynthesisRetries int
	// Rand drives tap selection and synthesis randomization; required.
	Rand *rng.Stream
}

func (o *Options) fill() error {
	if o.Rand == nil {
		return fmt.Errorf("orap: Options.Rand is required")
	}
	if o.TapSpacing <= 0 {
		o.TapSpacing = 8
	}
	if o.InjectSpacing <= 0 {
		o.InjectSpacing = 1
	}
	if o.FreeRun < 0 {
		return fmt.Errorf("orap: negative FreeRun")
	}
	if o.FreeRun == 0 {
		o.FreeRun = 1
	}
	if o.MaxSynthesisRetries <= 0 {
		o.MaxSynthesisRetries = 8
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
		return scan.Config{
			Core:       core,
			RealPIs:    realPIs,
			RealPOs:    realPOs,
			Protection: scan.None,
			Key:        append([]bool(nil), key...),
		}, nil
	}
	return scan.Config{}, fmt.Errorf("orap: unknown protection %v", protection)
}

// lfsrConfig builds the register wiring for an n-bit key.
func lfsrConfig(n int, opts Options) lfsr.Config {
	return lfsr.Config{
		N:      n,
		Taps:   lfsr.StandardTaps(n, opts.TapSpacing),
		Inject: lfsr.EveryKthInject(n, opts.InjectSpacing),
	}
}

// growSchedule finds a schedule whose memory transfer matrix has full
// rank n, starting from opts.Seeds (or the minimum implied by widths).
// When the requested free-run count aliases with the injection spacing
// (seed bits then only ever reach a subset of the cells), nearby free-run
// counts are tried as well — the paper leaves both knobs to the designer.
func growSchedule(cfg lfsr.Config, memInject []int, n int, opts Options) (lfsr.Schedule, *gf2.Matrix, error) {
	w := len(memInject)
	minSeeds := opts.Seeds
	if minSeeds <= 0 {
		minSeeds = (n + w - 1) / w
	}
	var lastErr error
	for _, freeRun := range []int{opts.FreeRun, opts.FreeRun + 1, opts.FreeRun + 2} {
		for seeds := minSeeds; seeds <= 8*((n+w-1)/w)+8; seeds++ {
			sc := lfsr.UniformSchedule(seeds, freeRun)
			m, err := lfsr.MemTransferMatrix(cfg, sc, memInject)
			if err != nil {
				return lfsr.Schedule{}, nil, err
			}
			if m.Rank() == n {
				return sc, m, nil
			}
			lastErr = fmt.Errorf("orap: transfer matrix rank %d < %d (%d seeds, %d free-run)", m.Rank(), n, seeds, freeRun)
			if opts.Seeds > 0 {
				break // seed count pinned by the caller: only vary free-run
			}
		}
	}
	return lfsr.Schedule{}, nil, fmt.Errorf("orap: could not reach a full-rank transfer matrix: %w", lastErr)
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
	cfg := lfsrConfig(n, opts)
	memInject := make([]int, len(cfg.Inject))
	for i := range memInject {
		memInject[i] = i
	}
	sc, m, err := growSchedule(cfg, memInject, n, opts)
	if err != nil {
		return scan.Config{}, err
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

// synthesizeModified builds the Fig. 3 scheme: reseeding points alternate
// between memory-driven and response-driven (interleaved, as the paper
// prescribes), and the seeds are found by a fixpoint iteration over
// concrete unlock simulations.
func synthesizeModified(core *netlist.Circuit, key []bool, realPIs, realPOs int, opts Options) (scan.Config, error) {
	// With reseeding points on every cell, the sequential construction
	// (exact.go) synthesizes the key sequence deterministically for any
	// circuit; the randomized fixpoint below remains for sparse
	// injection layouts.
	if opts.InjectSpacing == 1 && opts.TapSpacing%2 == 0 {
		cfg, err := synthesizeModifiedSequential(core, key, realPIs, realPOs, opts)
		if err == nil {
			return cfg, nil
		}
	}
	n := core.NumKeys()
	cfg := lfsrConfig(n, opts)
	numFFs := core.NumInputs() - realPIs
	if numFFs <= 0 {
		return scan.Config{}, fmt.Errorf("orap: modified scheme needs flip-flops for response feedback (core has none)")
	}
	// Interleave: even inject positions from memory, odd from responses.
	var memInject, respInject []int
	for i := range cfg.Inject {
		if i%2 == 0 {
			memInject = append(memInject, i)
		} else {
			respInject = append(respInject, i)
		}
	}
	if len(respInject) == 0 {
		return scan.Config{}, fmt.Errorf("orap: too few reseeding points to split (have %d)", len(cfg.Inject))
	}

	sc, m, err := growSchedule(cfg, memInject, n, opts)
	if err != nil {
		return scan.Config{}, err
	}
	target := gf2.FromBools(key)
	width := len(memInject)

	// Prefer response taps whose flip-flops are key-independent (their
	// next-state cones contain no key inputs, transitively): the response
	// sequence is then a known constant of the design, key-sequence
	// synthesis reduces to one exact linear solve, and the designer gets
	// the "better control on the LFSR values" the paper asks for. The
	// scenario-(e) defense is unaffected — frozen flip-flops still feed
	// wrong values into the register. When no such flip-flops exist the
	// synthesis falls back to a randomized fixpoint search over the
	// (then key-entangled) response feedback.
	prog, err := ir.Compile(core)
	if err != nil {
		return scan.Config{}, err
	}
	indepFFs := keyIndependentFFs(core, prog, realPIs, realPOs)

	for retry := 0; retry < opts.MaxSynthesisRetries; retry++ {
		// Pick response taps (which flip-flops feed the odd points).
		respTaps := make([]int, len(respInject))
		if len(indepFFs) > 0 && retry == 0 {
			perm := opts.Rand.Perm(len(indepFFs))
			for i := range respTaps {
				respTaps[i] = indepFFs[perm[i%len(indepFFs)]]
			}
		} else {
			perm := opts.Rand.Perm(numFFs)
			for i := range respTaps {
				respTaps[i] = perm[i%numFFs]
			}
		}
		chipCfg := scan.Config{
			Core:       core,
			RealPIs:    realPIs,
			RealPOs:    realPOs,
			Protection: scan.OraPModified,
			LFSR:       cfg,
			Schedule:   sc,
			Seeds:      splitSeeds(gf2.NewVec(width*sc.NumSeeds()), sc.NumSeeds(), width),
			MemInject:  memInject,
			RespInject: respInject,
			RespTaps:   respTaps,
		}
		stacked := gf2.NewVec(width * sc.NumSeeds())
		seen := map[string]bool{}
		converged := false
		for iter := 0; iter < 32; iter++ {
			chipCfg.Seeds = splitSeeds(stacked, sc.NumSeeds(), width)
			final, err := simulateFinalKey(chipCfg)
			if err != nil {
				return scan.Config{}, err
			}
			if final.Equal(target) {
				converged = true
				break
			}
			// Newton-style correction treating the response contribution
			// as locally constant: M·δ = final ⊕ target.
			delta := final.Clone()
			delta.Xor(target)
			dSeed, ok := m.Solve(delta)
			if !ok {
				return scan.Config{}, fmt.Errorf("orap: correction solve failed on full-rank matrix")
			}
			stacked.Xor(dSeed)
			sig := stacked.String()
			if seen[sig] {
				// Fixpoint cycle: restart from a fresh random point; the
				// search then behaves like rejection sampling over the
				// response-feedback images.
				for b := 0; b < stacked.Len(); b++ {
					stacked.SetBit(b, opts.Rand.Bool())
				}
			}
			seen[sig] = true
		}
		if converged {
			if err := verifyUnlock(chipCfg, key); err != nil {
				return scan.Config{}, err
			}
			return chipCfg, nil
		}
	}
	return scan.Config{}, fmt.Errorf("orap: modified-scheme synthesis did not converge after %d retries", opts.MaxSynthesisRetries)
}

// simulateFinalKey runs a pristine chip's unlock and returns the key
// register's final contents.
func simulateFinalKey(cfg scan.Config) (gf2.Vec, error) {
	ch, err := scan.New(cfg)
	if err != nil {
		return gf2.Vec{}, err
	}
	if err := ch.Unlock(nil); err != nil {
		return gf2.Vec{}, err
	}
	return gf2.FromBools(ch.Key()), nil
}

// verifyUnlock checks by simulation that a pristine chip built from cfg
// unlocks to exactly the expected key.
func verifyUnlock(cfg scan.Config, key []bool) error {
	final, err := simulateFinalKey(cfg)
	if err != nil {
		return err
	}
	if !final.Equal(gf2.FromBools(key)) {
		return fmt.Errorf("orap: synthesized key sequence unlocks to %v, want %v", final, gf2.FromBools(key))
	}
	return nil
}

// keyIndependentFFs returns the indices of flip-flops whose next-state
// logic is transitively independent of every key input: the cone of their
// D input contains no key input and no key-dependent flip-flop output.
// prog is core compiled.
func keyIndependentFFs(core *netlist.Circuit, prog *ir.Program, realPIs, realPOs int) []int {
	numFFs := core.NumInputs() - realPIs
	if numFFs <= 0 {
		return nil
	}
	isKey := make([]bool, core.NumNodes())
	for _, k := range core.Keys {
		isKey[k] = true
	}
	// ffOfInput maps a core input node ID to its flip-flop index (-1 for
	// package pins).
	ffOfInput := make(map[int]int)
	for i, id := range core.PIs[realPIs:] {
		ffOfInput[id] = i
	}

	// cones[j] lists, for flip-flop j's D input, the key flag and the
	// flip-flop outputs in its transitive fanin.
	directKey := make([]bool, numFFs)
	deps := make([][]int, numFFs)
	for j := 0; j < numFFs; j++ {
		cone := prog.TransitiveFanin(core.POs[realPOs+j])
		for id, in := range cone {
			if !in {
				continue
			}
			if isKey[id] {
				directKey[j] = true
			}
			if ff, ok := ffOfInput[id]; ok {
				deps[j] = append(deps[j], ff)
			}
		}
	}
	// Fixpoint: a flip-flop is key-dependent if its cone has a key input
	// or a key-dependent flip-flop.
	keyDep := append([]bool(nil), directKey...)
	for changed := true; changed; {
		changed = false
		for j := 0; j < numFFs; j++ {
			if keyDep[j] {
				continue
			}
			for _, d := range deps[j] {
				if keyDep[d] {
					keyDep[j] = true
					changed = true
					break
				}
			}
		}
	}
	var indep []int
	for j := 0; j < numFFs; j++ {
		if !keyDep[j] {
			indep = append(indep, j)
		}
	}
	return indep
}
