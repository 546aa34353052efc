package orap

import (
	"fmt"

	"orap/internal/gf2"
	"orap/internal/ir"
	"orap/internal/lfsr"
	"orap/internal/netlist"
	"orap/internal/scan"
	"orap/internal/sim"
)

// synthesizeModifiedSequential is the exact synthesis for the modified
// scheme when the reseeding points cover every cell (InjectSpacing == 1)
// and seeds are fed back to back (no free-run cycles).
//
// It exploits two facts:
//
//  1. The response word injected at cycle t is a function of the
//     flip-flop state at cycle t, which is fully determined before seed t
//     is chosen — the construction is triangular, never circular.
//  2. With memory seeds on the even cells, responses on the odd cells,
//     and polynomial taps only at even positions (any even tap spacing),
//     the register shift maps the even half of a state onto the odd half
//     of the next state. The final state's odd half is therefore set one
//     cycle early through the even half of the penultimate state (whose
//     response perturbation is already known), and the final state's even
//     half is set directly by the last seed.
//
// The construction works for every circuit, independent of how entangled
// the responses are with the key inputs.
func synthesizeModifiedSequential(core *netlist.Circuit, key []bool, realPIs, realPOs int, opts Options) (scan.Config, error) {
	n := core.NumKeys()
	if opts.TapSpacing%2 != 0 {
		return scan.Config{}, fmt.Errorf("orap: sequential synthesis needs an even tap spacing, got %d", opts.TapSpacing)
	}
	cfg := lfsr.Config{
		N:      n,
		Taps:   lfsr.StandardTaps(n, opts.TapSpacing),
		Inject: lfsr.AllInject(n),
	}
	var memInject, respInject []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			memInject = append(memInject, i)
		} else {
			respInject = append(respInject, i)
		}
	}
	if len(respInject) == 0 {
		return scan.Config{}, fmt.Errorf("orap: key register too small to split reseeding points (n=%d)", n)
	}
	numFFs := core.NumInputs() - realPIs
	if numFFs <= 0 {
		return scan.Config{}, fmt.Errorf("orap: modified scheme needs flip-flops for response feedback")
	}
	respTaps := make([]int, len(respInject))
	perm := opts.Rand.Perm(numFFs)
	for i := range respTaps {
		respTaps[i] = perm[i%numFFs]
	}

	seeds := opts.Seeds
	if seeds < 4 {
		seeds = 4
	}
	T := seeds
	sc := lfsr.UniformSchedule(T, 0)

	reg, err := lfsr.New(cfg)
	if err != nil {
		return scan.Config{}, err
	}
	ff := make([]bool, numFFs)
	pins := make([]bool, realPIs)
	target := gf2.FromBools(key)

	// evalFF computes the next flip-flop state for the current key state.
	// The core is compiled once here and reused for every unlock cycle.
	prog, err := ir.Compile(core)
	if err != nil {
		return scan.Config{}, err
	}
	coreEval := sim.EvaluatorFor(prog)
	evalFF := func(ff []bool, state gf2.Vec) ([]bool, error) {
		in := make([]bool, core.NumInputs())
		copy(in, pins)
		copy(in[realPIs:], ff)
		out, err := coreEval.Eval(in, state.Bools())
		if err != nil {
			return nil, err
		}
		return append([]bool(nil), out[realPOs:]...), nil
	}
	// respWord builds the odd-cell injection vector for a flip-flop state.
	respWord := func(ff []bool) gf2.Vec {
		v := gf2.NewVec(n)
		for j, cell := range respInject {
			if ff[respTaps[j]] {
				v.SetBit(cell, true)
			}
		}
		return v
	}
	// shiftWith computes the next register state for a full-width
	// injection vector.
	shiftWith := func(state, inj gf2.Vec) (gf2.Vec, error) {
		if err := reg.SetState(state); err != nil {
			return gf2.Vec{}, err
		}
		if err := reg.Step(inj); err != nil {
			return gf2.Vec{}, err
		}
		return reg.State(), nil
	}

	state := gf2.NewVec(n)
	seedVecs := make([]gf2.Vec, T)
	memWidth := len(memInject)
	for t := 0; t < T; t++ {
		// Baseline transition with a zero seed: shift + response injection.
		base, err := shiftWith(state, respWord(ff))
		if err != nil {
			return scan.Config{}, err
		}
		ffNext, err := evalFF(ff, state)
		if err != nil {
			return scan.Config{}, err
		}
		// Desired even half of the next state.
		desired := gf2.NewVec(memWidth)
		switch {
		case t < T-2:
			for i := 0; i < memWidth; i++ {
				desired.SetBit(i, opts.Rand.Bool())
			}
		case t == T-2:
			// Next cycle's responses are already determined by ffNext;
			// position the even half so the shift lands the target's odd
			// half.
			rNext := respWord(ffNext)
			for i, cell := range memInject {
				odd := cell + 1
				if odd >= n {
					desired.SetBit(i, opts.Rand.Bool())
					continue
				}
				// state_T[odd] = state_{T-1}[odd-1] ⊕ rNext[odd]
				// (taps sit on even cells only, so none interferes).
				desired.SetBit(i, target.Bit(odd) != rNext.Bit(odd))
			}
		default: // t == T-1
			for i, cell := range memInject {
				desired.SetBit(i, target.Bit(cell))
			}
		}
		// Seed bits make up the difference on the even cells.
		seed := gf2.NewVec(memWidth)
		for i, cell := range memInject {
			seed.SetBit(i, desired.Bit(i) != base.Bit(cell))
		}
		seedVecs[t] = seed
		inj := respWord(ff)
		for i, cell := range memInject {
			if seed.Bit(i) {
				inj.FlipBit(cell)
			}
		}
		state, err = shiftWith(state, inj)
		if err != nil {
			return scan.Config{}, err
		}
		ff = ffNext
	}
	if !state.Equal(target) {
		return scan.Config{}, fmt.Errorf("orap: sequential synthesis missed the target key (got %v, want %v)", state, target)
	}

	chipCfg := scan.Config{
		Core:       core,
		RealPIs:    realPIs,
		RealPOs:    realPOs,
		Protection: scan.OraPModified,
		LFSR:       cfg,
		Schedule:   sc,
		Seeds:      seedVecs,
		MemInject:  memInject,
		RespInject: respInject,
		RespTaps:   respTaps,
	}
	if err := chipCfg.Validate(); err != nil {
		return scan.Config{}, err
	}
	if err := verifyUnlock(chipCfg, key); err != nil {
		return scan.Config{}, err
	}
	return chipCfg, nil
}
