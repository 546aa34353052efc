// Package metrics measures output corruptibility, the quantity the
// paper's Table I reports as Hamming distance (HD): the valid key and
// random wrong keys are applied to the locked circuit, long pseudorandom
// input sequences are simulated, and the fraction of differing output
// bits is averaged.
//
// The measurement is bit-parallel and streamed in blocks, so circuits at
// b19 scale (~200k gates, thousands of outputs, hundreds of thousands of
// patterns) run in bounded memory. Blocks are fanned out across a worker
// pool; each block draws its patterns from its own deterministic
// substream of the seed, so the result is bit-identical at any worker
// count.
package metrics

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/par"
	"orap/internal/rng"
	"orap/internal/sim"
)

// HDOptions tunes the Hamming-distance measurement.
type HDOptions struct {
	// Patterns is the number of pseudorandom input patterns (default
	// 262144, "a few hundreds of thousands" as in the paper; rounded up
	// to a multiple of the block size).
	Patterns int
	// WrongKeys is the number of random wrong keys averaged (default 8).
	WrongKeys int
	// BlockWords is the number of 64-pattern words simulated at once
	// (default 64, i.e. 4096 patterns per block).
	BlockWords int
	// Workers bounds the worker pool simulating blocks (0 = all cores,
	// 1 = serial). The result does not depend on it.
	Workers int
	// Rand drives pattern and wrong-key generation; required.
	Rand *rng.Stream
}

func (o *HDOptions) fill() error {
	if o.Rand == nil {
		return fmt.Errorf("metrics: HDOptions.Rand is required")
	}
	if o.Patterns <= 0 {
		o.Patterns = 1 << 18
	}
	if o.WrongKeys <= 0 {
		o.WrongKeys = 8
	}
	if o.BlockWords <= 0 {
		o.BlockWords = 64
	}
	return nil
}

// HDResult reports a corruptibility measurement.
type HDResult struct {
	// HDPercent is the average Hamming distance between correct-key and
	// wrong-key outputs, as a percentage of all output bits.
	HDPercent float64
	// Patterns and WrongKeys echo the measurement size.
	Patterns  int
	WrongKeys int
	// AvgFlippedOutputs is the average number of corrupted outputs per
	// pattern (the paper's "2068 out of 6672 outputs" style statistic).
	AvgFlippedOutputs float64
}

// hdWorker is the per-worker scratch of the block fan-out: a private
// evaluator plus the good-output buffer it compares wrong keys against.
type hdWorker struct {
	eval *sim.Parallel
	good [][]uint64
}

// HammingDistance measures output corruptibility of a locked circuit:
// the average bit-difference between the circuit under its correct key
// and under random wrong keys, over pseudorandom input patterns.
//
// Pattern blocks are simulated concurrently on opts.Workers workers; each
// block b draws its patterns from substream b of opts.Rand (rng.Split),
// and per-block difference counts are reduced in block order, so the
// result is bit-identical regardless of the worker count.
func HammingDistance(locked *netlist.Circuit, correctKey []bool, opts HDOptions) (HDResult, error) {
	if err := opts.fill(); err != nil {
		return HDResult{}, err
	}
	if len(correctKey) != locked.NumKeys() {
		return HDResult{}, fmt.Errorf("metrics: key width %d != circuit %d", len(correctKey), locked.NumKeys())
	}
	if locked.NumKeys() == 0 {
		return HDResult{}, fmt.Errorf("metrics: circuit %q has no key inputs", locked.Name)
	}
	// The circuit compiles once; every worker's evaluator shares the
	// immutable program and owns only its value buffer.
	prog, err := ir.Compile(locked)
	if err != nil {
		return HDResult{}, err
	}

	// Draw the wrong keys up front (skipping accidental hits on the
	// correct key).
	wrong := make([][]bool, 0, opts.WrongKeys)
	for len(wrong) < opts.WrongKeys {
		k := make([]bool, len(correctKey))
		opts.Rand.Bits(k)
		same := true
		for i := range k {
			if k[i] != correctKey[i] {
				same = false
				break
			}
		}
		if !same {
			wrong = append(wrong, k)
		}
	}

	blockPatterns := opts.BlockWords * 64
	blocks := (opts.Patterns + blockPatterns - 1) / blockPatterns
	totalPatterns := blocks * blockPatterns
	blockRand := opts.Rand.Split(blocks)

	workers := par.Workers(opts.Workers)
	scratch := make([]*hdWorker, workers)
	blockDiff := make([]int64, blocks)
	err = par.ForEachWorker(workers, blocks, func(w, b int) error {
		s := scratch[w]
		if s == nil {
			eval, err := sim.ForProgram(prog, opts.BlockWords)
			if err != nil {
				return err
			}
			s = &hdWorker{eval: eval}
			s.good = make([][]uint64, locked.NumOutputs())
			for i := range s.good {
				s.good[i] = make([]uint64, opts.BlockWords)
			}
			scratch[w] = s
		}
		s.eval.RandomizeInputs(blockRand[b])
		if err := s.eval.SetKey(correctKey); err != nil {
			return err
		}
		s.eval.Run()
		for i, id := range locked.POs {
			copy(s.good[i], s.eval.Value(id))
		}
		var diff int64
		for _, k := range wrong {
			if err := s.eval.SetKey(k); err != nil {
				return err
			}
			s.eval.Run()
			for i, id := range locked.POs {
				diff += int64(sim.DiffBits(s.eval.Value(id), s.good[i], blockPatterns))
			}
		}
		blockDiff[b] = diff
		return nil
	})
	if err != nil {
		return HDResult{}, err
	}

	var diffBits int64
	for _, d := range blockDiff {
		diffBits += d
	}
	totalBits := int64(totalPatterns) * int64(len(wrong)) * int64(locked.NumOutputs())
	hd := 100 * float64(diffBits) / float64(totalBits)
	return HDResult{
		HDPercent:         hd,
		Patterns:          totalPatterns,
		WrongKeys:         len(wrong),
		AvgFlippedOutputs: hd / 100 * float64(locked.NumOutputs()),
	}, nil
}
