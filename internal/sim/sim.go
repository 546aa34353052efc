// Package sim evaluates combinational circuits.
//
// The workhorse is the 64-way bit-parallel simulator: every node carries a
// vector of 64-bit words, so one pass over the netlist evaluates 64 input
// patterns per word. This is the engine behind the Hamming-distance
// corruptibility measurements of Table I (hundreds of thousands of
// pseudorandom patterns), the fault simulator, and the attack oracles.
//
// All evaluation runs over the compiled circuit IR (internal/ir): an
// evaluator is built over an ir.Program and walks its flat opcode/fanin
// arrays. Evaluators share the immutable program and each owns only its
// value buffer, so concurrent workers each build their own with
// ForProgram.
package sim

import (
	"fmt"
	"math/bits"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// Parallel is a reusable bit-parallel evaluator for a fixed circuit and a
// fixed number of 64-pattern words.
type Parallel struct {
	prog  *ir.Program
	words int
	vals  []uint64 // node-major: vals[id*words : (id+1)*words]
}

// ForProgram builds an evaluator over an already-compiled program,
// sharing it read-only with any other consumer.
func ForProgram(prog *ir.Program, words int) (*Parallel, error) {
	if words <= 0 {
		return nil, fmt.Errorf("sim: words must be positive, got %d", words)
	}
	return &Parallel{
		prog:  prog,
		words: words,
		vals:  make([]uint64, prog.NumNodes()*words),
	}, nil
}

// Program returns the compiled program the evaluator runs; it is
// immutable and may be shared with other evaluators and backends.
func (p *Parallel) Program() *ir.Program { return p.prog }

// Value returns the value words of node id. The returned slice aliases the
// simulator's buffer; it is valid until the next Run and must not be
// modified except for input nodes via SetInput.
func (p *Parallel) Value(id int) []uint64 {
	return p.vals[id*p.words : (id+1)*p.words]
}

// SetInput copies the given pattern words into input node id.
func (p *Parallel) SetInput(id int, w []uint64) {
	copy(p.Value(id), w)
}

// SetInputConst sets all patterns of input node id to the same bit.
func (p *Parallel) SetInputConst(id int, v bool) {
	var word uint64
	if v {
		word = ^uint64(0)
	}
	dst := p.Value(id)
	for i := range dst {
		dst[i] = word
	}
}

// Run evaluates every gate in topological order. Input node values must
// have been set beforehand; values of non-input nodes are overwritten.
func (p *Parallel) Run() {
	p.prog.RunWords(p.vals, p.words)
}

// RandomizeInputs fills every primary input with pseudo-random patterns
// from r, leaving key inputs untouched.
func (p *Parallel) RandomizeInputs(r *rng.Stream) {
	for _, id := range p.prog.PIs {
		r.Words(p.Value(int(id)))
	}
}

// SetKey applies the given key bits to the circuit's key inputs, each bit
// replicated across all patterns. len(key) must equal the key width.
func (p *Parallel) SetKey(key []bool) error {
	if len(key) != p.prog.NumKeys() {
		return fmt.Errorf("sim: key width %d does not match circuit key width %d", len(key), p.prog.NumKeys())
	}
	for i, id := range p.prog.Keys {
		p.SetInputConst(int(id), key[i])
	}
	return nil
}

// Eval evaluates the circuit on a single pattern given as primary-input and
// key bit slices, returning the primary output bits in declaration order.
// It compiles the circuit per call; loops should compile once and call
// ir.Program.Eval instead.
func Eval(c *netlist.Circuit, pi, key []bool) ([]bool, error) {
	prog, err := ir.Compile(c)
	if err != nil {
		return nil, err
	}
	return prog.Eval(pi, key)
}

// DiffBits XORs two equal-length word vectors and counts differing bits
// among the first n patterns.
func DiffBits(a, b []uint64, n int) int {
	total := 0
	full := n / 64
	for i := 0; i < full; i++ {
		total += bits.OnesCount64(a[i] ^ b[i])
	}
	if rem := n % 64; rem > 0 {
		total += bits.OnesCount64((a[full] ^ b[full]) & (1<<uint(rem) - 1))
	}
	return total
}
