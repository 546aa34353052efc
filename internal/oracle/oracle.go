// Package oracle defines the black-box access channel that oracle-guided
// attacks query, together with the ideal (unprotected) implementation.
//
// In the paper's threat model, the attacker owns an activated chip and
// reaches its combinational core through the scan chains ("scan in –
// capture – scan out"). An unprotected chip therefore behaves like Comb:
// every query returns the correct response. The OraP-protected chip
// (package scan / orap) also satisfies Oracle, but its responses are
// computed with a cleared key register — the central difference the
// experiments measure.
//
// The channel has one method: QueryWords carries up to 64 patterns per
// interface crossing, bit-sliced one uint64 lane word per input, matching
// the layout of the sim/ir evaluation kernel. A single pattern crosses as
// lane 0 of a one-pattern batch through the Query helper. Session wraps
// any oracle with transcript memoisation, a query budget and channel
// telemetry (total/unique patterns, cache hits, modeled scan-cycle cost),
// making the access channel itself measurable.
package oracle

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/sim"
)

// Oracle answers combinational input/output queries on an activated chip.
type Oracle interface {
	// NumInputs returns the width of query patterns.
	NumInputs() int
	// NumOutputs returns the width of responses.
	NumOutputs() int
	// QueryWords applies up to 64 patterns at once; n is the number of
	// valid lanes (1..64). Patterns are bit-sliced: in[i] holds input bit
	// i across the batch, with bit p of in[i] being pattern p's value of
	// input i. The response uses the same layout over outputs, and lanes
	// at and above n are zero. A batch of n patterns advances Queries()
	// by n; a rejected batch advances it by nothing.
	QueryWords(in []uint64, n int) ([]uint64, error)
	// Queries returns how many patterns have been queried.
	Queries() int
}

// WordOracle is kept only because perfbench names it.
type WordOracle = Oracle

// Query sends the single pattern x through o as lane 0 of a one-pattern
// batch and returns the response. A pattern of the wrong width is
// rejected by o's batch check.
func Query(o Oracle, x []bool) ([]bool, error) {
	in := make([]uint64, len(x))
	PackPattern(in, 0, x)
	out, err := o.QueryWords(in, 1)
	if err != nil {
		return nil, err
	}
	y := make([]bool, len(out))
	UnpackPattern(out, 0, y)
	return y, nil
}

// ChannelCost is implemented by oracles whose access channel has a
// modeled per-query clock cost. A scan-protocol oracle reports
// 2·chain-length+1 (shift in, capture, shift out); the ideal direct
// oracle reports 1 (a single capture clock, no chains to traverse).
type ChannelCost interface {
	// QueryCycles returns the modeled test-clock cycles one query costs.
	QueryCycles() int64
}

// LaneMask returns a word with the low n bits set — the valid lanes of
// an n-pattern batch.
func LaneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// PackPattern writes pattern x into lane p of the bit-sliced word
// vector in. len(in) must be at least len(x).
func PackPattern(in []uint64, p int, x []bool) {
	bit := uint64(1) << uint(p)
	for i, v := range x {
		if v {
			in[i] |= bit
		} else {
			in[i] &^= bit
		}
	}
}

// UnpackPattern fills x with lane p of the bit-sliced word vector out.
// len(out) must be at least len(x).
func UnpackPattern(out []uint64, p int, x []bool) {
	for i := range x {
		x[i] = out[i]>>uint(p)&1 == 1
	}
}

// checkBatch validates the shape of a batched query against an oracle.
func checkBatch(o Oracle, in []uint64, n int) error {
	if n < 1 || n > 64 {
		return fmt.Errorf("oracle: batch size %d out of range [1,64]", n)
	}
	if len(in) != o.NumInputs() {
		return fmt.Errorf("oracle: batch width %d != oracle inputs %d", len(in), o.NumInputs())
	}
	return nil
}

// Comb is the ideal oracle: direct combinational evaluation of a circuit
// with the correct key applied. It models unrestricted scan access to an
// unprotected activated chip. The circuit is compiled once at
// construction, and every batch runs 64-way word-parallel over the
// compiled program.
type Comb struct {
	par     *sim.Parallel // one-word evaluator, key inputs set
	queries int
}

// NewComb returns an oracle over circuit c unlocked with key. The key
// width must match the circuit; an unkeyed circuit takes a nil key.
func NewComb(c *netlist.Circuit, key []bool) (*Comb, error) {
	if len(key) != c.NumKeys() {
		return nil, fmt.Errorf("oracle: key width %d != circuit %d", len(key), c.NumKeys())
	}
	prog, err := ir.Compile(c)
	if err != nil {
		return nil, err
	}
	par, err := sim.ForProgram(prog, 1)
	if err != nil {
		return nil, err
	}
	if err := par.SetKey(key); err != nil {
		return nil, err
	}
	return &Comb{par: par}, nil
}

// NumInputs implements Oracle.
func (o *Comb) NumInputs() int { return o.par.Program().NumInputs() }

// NumOutputs implements Oracle.
func (o *Comb) NumOutputs() int { return o.par.Program().NumOutputs() }

// QueryWords implements Oracle: all lanes evaluate in one pass over the
// compiled program.
func (o *Comb) QueryWords(in []uint64, n int) ([]uint64, error) {
	if err := checkBatch(o, in, n); err != nil {
		return nil, err
	}
	prog := o.par.Program()
	for i, id := range prog.PIs {
		o.par.SetInput(int(id), in[i:i+1])
	}
	o.par.Run()
	mask := LaneMask(n)
	out := make([]uint64, prog.NumOutputs())
	for j, id := range prog.POs {
		out[j] = o.par.Value(int(id))[0] & mask
	}
	o.queries += n
	return out, nil
}

// QueryCycles implements ChannelCost: the ideal oracle applies a pattern
// directly, so a query costs a single capture clock.
func (o *Comb) QueryCycles() int64 { return 1 }

// Queries implements Oracle.
func (o *Comb) Queries() int { return o.queries }

// ErrBudget reports an exhausted oracle query budget.
var ErrBudget = fmt.Errorf("oracle: query budget exhausted")
