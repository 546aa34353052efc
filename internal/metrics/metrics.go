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
//
// The kernel splits the locked program by ir.Program.KeyOnly. Key-only
// nodes (the key inputs and the control cone over them) are constant
// under a key, so each key evaluates them once per call on one word.
// Each block then broadcasts the few key-only words that the rest of
// the circuit reads, runs the correct key over every input-dependent
// gate, and re-runs each wrong key over the keys' transitive fanout
// only: the other gates see the same inputs and keep their values. The
// result is bit-identical to a full evaluation per key.
package metrics

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/par"
	"orap/internal/rng"
	"orap/internal/sim"
)

// blockWords is the number of 64-pattern words simulated at once (4096
// patterns per block). The kernel pays a fixed cost per node visit, so
// narrower blocks run slower.
const blockWords = 64

// HDOptions tunes the Hamming-distance measurement.
type HDOptions struct {
	// Patterns is the number of pseudorandom input patterns (default
	// 262144, "a few hundreds of thousands" as in the paper; rounded up
	// to a multiple of the 4096-pattern block).
	Patterns int
	// WrongKeys is the number of random wrong keys averaged (default 8).
	WrongKeys int
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

// hdPlan is the key-only partition of a locked program that every
// block of one measurement runs over.
type hdPlan struct {
	// broadcast lists the key-only nodes that an input-dependent gate
	// reads or that are primary outputs: the only key-only words a
	// block needs.
	broadcast []int32
	// keyWords[k][i] is broadcast[i]'s word under key k, the correct
	// key first, then the wrong keys. Each is all zeros or all ones.
	keyWords [][]uint64
	// fixed lists, in topological order, the input-dependent gates that
	// no key input reaches: they take the same values under every key.
	fixed []int32
	// fanout lists, in topological order, the input-dependent gates in
	// the key inputs' transitive fanout, which every key re-runs. No
	// gate of fixed reads one of them.
	fanout []int32
	// outs lists the primary outputs a key input reaches, duplicates
	// kept; the others cannot differ between keys.
	outs []int32
}

// newHDPlan partitions prog and evaluates the key-only nodes once per
// key on a single word.
func newHDPlan(prog *ir.Program, keys [][]bool) *hdPlan {
	n := prog.NumNodes()
	keyOnly := prog.KeyOnly()
	reached, read := make([]bool, n), make([]bool, n)
	for _, k := range prog.Keys {
		reached[k] = true
	}
	for _, po := range prog.POs {
		read[po] = keyOnly[po]
	}
	var cones, fixed, fanout int
	for _, id := range prog.Order {
		for _, f := range prog.FaninSpan(int(id)) {
			reached[id] = reached[id] || reached[f]
			read[f] = read[f] || keyOnly[f] && !keyOnly[id]
		}
		switch {
		case keyOnly[id]:
			cones++
		case prog.Ops[id] == ir.OpInput:
		case reached[id]:
			fanout++
		default:
			fixed++
		}
	}
	pl := &hdPlan{fixed: make([]int32, 0, fixed), fanout: make([]int32, 0, fanout)}
	cone := make([]int32, 0, cones)
	for _, id := range prog.Order {
		switch {
		case keyOnly[id]:
			cone = append(cone, id)
			if read[id] {
				pl.broadcast = append(pl.broadcast, id)
			}
		case prog.Ops[id] == ir.OpInput:
		case reached[id]:
			pl.fanout = append(pl.fanout, id)
		default:
			pl.fixed = append(pl.fixed, id)
		}
	}
	for _, po := range prog.POs {
		if reached[po] {
			pl.outs = append(pl.outs, po)
		}
	}

	one := make([]uint64, n)
	pl.keyWords = make([][]uint64, len(keys))
	for k, key := range keys {
		for i, id := range prog.Keys {
			one[id] = 0
			if key[i] {
				one[id] = ^uint64(0)
			}
		}
		prog.RunWords(one, 1, cone)
		w := make([]uint64, len(pl.broadcast))
		for i, id := range pl.broadcast {
			w[i] = one[id]
		}
		pl.keyWords[k] = w
	}
	return pl
}

// setKey writes key k's broadcast words into the block buffer vals.
func (pl *hdPlan) setKey(vals []uint64, k int) {
	for i, id := range pl.broadcast {
		w := pl.keyWords[k][i]
		dst := vals[int(id)*blockWords : int(id)*blockWords+blockWords]
		for j := range dst {
			dst[j] = w
		}
	}
}

// hdWorker is the per-worker scratch of the block fan-out: a node-major
// block buffer and the correct-key words of pl.outs.
type hdWorker struct {
	vals []uint64
	good []uint64
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
	// The circuit compiles once; every worker shares the immutable
	// program and plan and owns only its buffers.
	prog, err := ir.Compile(locked)
	if err != nil {
		return HDResult{}, err
	}

	// Draw the wrong keys up front (skipping accidental hits on the
	// correct key).
	keys := make([][]bool, 1, 1+opts.WrongKeys)
	keys[0] = correctKey
	for len(keys) < 1+opts.WrongKeys {
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
			keys = append(keys, k)
		}
	}
	pl := newHDPlan(prog, keys)

	const W, blockPatterns = blockWords, blockWords * 64
	blocks := (opts.Patterns + blockPatterns - 1) / blockPatterns
	totalPatterns := blocks * blockPatterns
	blockRand := opts.Rand.Split(blocks)

	workers := par.Workers(opts.Workers)
	scratch := make([]*hdWorker, workers)
	blockDiff := make([]int64, blocks)
	err = par.ForEachWorker(workers, blocks, func(w, b int) error {
		s := scratch[w]
		if s == nil {
			s = &hdWorker{
				vals: make([]uint64, prog.NumNodes()*W),
				good: make([]uint64, len(pl.outs)*W),
			}
			scratch[w] = s
		}
		for _, id := range prog.PIs {
			blockRand[b].Words(s.vals[int(id)*W : int(id)*W+W])
		}
		pl.setKey(s.vals, 0)
		prog.RunWords(s.vals, W, pl.fixed)
		prog.RunWords(s.vals, W, pl.fanout)
		for i, id := range pl.outs {
			copy(s.good[i*W:i*W+W], s.vals[int(id)*W:int(id)*W+W])
		}
		var diff int64
		for k := 1; k < len(keys); k++ {
			pl.setKey(s.vals, k)
			prog.RunWords(s.vals, W, pl.fanout)
			for i, id := range pl.outs {
				diff += int64(sim.DiffBits(s.vals[int(id)*W:int(id)*W+W], s.good[i*W:i*W+W], blockPatterns))
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
	totalBits := int64(totalPatterns) * int64(opts.WrongKeys) * int64(locked.NumOutputs())
	hd := 100 * float64(diffBits) / float64(totalBits)
	return HDResult{
		HDPercent:         hd,
		Patterns:          totalPatterns,
		WrongKeys:         opts.WrongKeys,
		AvgFlippedOutputs: hd / 100 * float64(locked.NumOutputs()),
	}, nil
}
