package attack

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sim"
)

// HillOptions tunes the hill-climbing attack.
type HillOptions struct {
	// Patterns is the number of oracle-labelled patterns in the working
	// set (default 256; rounded up to a multiple of 64).
	Patterns int
	// Restarts is the number of random restarts (default 8).
	Restarts int
	// MaxPasses bounds full key-bit sweeps per restart (default 64).
	MaxPasses int
	// Rand drives pattern generation and restarts; required.
	Rand *rng.Stream
}

// HillClimb runs the test-aware hill-climbing attack of Plaza & Markov:
// the attacker collects correct responses for a set of patterns (via the
// oracle, standing in for the designer-provided test data the paper
// mentions), then greedily flips key bits to minimise the output mismatch
// of the locked netlist against those responses, with random restarts.
//
// The mismatch evaluation is bit-parallel: all patterns are simulated in
// one pass per candidate key.
func HillClimb(locked *netlist.Circuit, o oracle.Oracle, opts HillOptions) (*Result, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("attack: HillClimb requires a random stream")
	}
	if err := checkOracle(locked, o); err != nil {
		return nil, err
	}
	if opts.Patterns <= 0 {
		opts.Patterns = 256
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 8
	}
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 64
	}
	nk := locked.NumKeys()
	if nk == 0 {
		return nil, fmt.Errorf("attack: circuit has no key inputs")
	}
	words := (opts.Patterns + 63) / 64
	patterns := words * 64

	// Collect labelled patterns from the oracle.
	prog, err := ir.Compile(locked)
	if err != nil {
		return nil, err
	}
	p, err := sim.ForProgram(prog, words)
	if err != nil {
		return nil, err
	}
	inputWords := make([][]uint64, locked.NumInputs())
	for i := range inputWords {
		inputWords[i] = make([]uint64, words)
		opts.Rand.Words(inputWords[i])
	}
	want := make([][]uint64, locked.NumOutputs())
	for i := range want {
		want[i] = make([]uint64, words)
	}
	res := &Result{}
	defer res.finish(o, nil)
	// Label the working set through the oracle's word channel, one
	// 64-pattern word per interface crossing: the pattern words already
	// have the channel's bit-sliced layout.
	laneIn := make([]uint64, locked.NumInputs())
	for w := 0; w < words; w++ {
		for i := range laneIn {
			laneIn[i] = inputWords[i][w]
		}
		y, err := oracle.QueryWords(o, laneIn, 64)
		if err != nil {
			return res, err
		}
		for i := range want {
			want[i][w] = y[i]
		}
	}
	for i, id := range locked.PIs {
		p.SetInput(id, inputWords[i])
	}

	// cost returns the number of mismatching output bits for a key.
	cost := func(key []bool) int {
		if err := p.SetKey(key); err != nil {
			panic(err)
		}
		p.Run()
		total := 0
		for i, id := range locked.POs {
			total += sim.DiffBits(p.Value(id), want[i], patterns)
		}
		return total
	}

	var bestKey []bool
	bestCost := -1
	for restart := 0; restart < opts.Restarts; restart++ {
		key := make([]bool, nk)
		opts.Rand.Bits(key)
		cur := cost(key)
		stalled := 0
		for pass := 0; pass < opts.MaxPasses && cur > 0; pass++ {
			improved := false
			for i := 0; i < nk; i++ {
				key[i] = !key[i]
				c := cost(key)
				switch {
				case c < cur:
					cur = c
					improved = true
				case c == cur && opts.Rand.Intn(4) == 0:
					// Sideways move: plateaus are common when key bits
					// are grouped behind control gates (weighted
					// locking) — a flat random walk still makes progress
					// toward assembling a correct group.
				default:
					key[i] = !key[i]
				}
			}
			res.Iterations++
			if improved {
				stalled = 0
				continue
			}
			// Single flips exhausted: try coordinated pair flips, which
			// cross the plateaus that grouped key bits (control gates)
			// create. Quadratic, so only for moderate key widths.
			if nk <= 64 {
			pairs:
				for i := 0; i < nk; i++ {
					for j := i + 1; j < nk; j++ {
						key[i] = !key[i]
						key[j] = !key[j]
						if c := cost(key); c < cur {
							cur = c
							improved = true
							break pairs
						}
						key[i] = !key[i]
						key[j] = !key[j]
					}
				}
			}
			if improved {
				stalled = 0
				continue
			}
			stalled++
			if stalled > nk {
				break // plateau exhausted for this restart
			}
		}
		if bestCost < 0 || cur < bestCost {
			bestCost = cur
			bestKey = append([]bool(nil), key...)
		}
		if bestCost == 0 {
			break
		}
	}
	res.Key = bestKey
	res.Converged = bestCost == 0
	return res, nil
}
