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
// arrays, and clones share the immutable program, so any number of
// evaluators may run concurrently with no warm-up.
package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// valsPool recycles value buffers between evaluators. Workers that clone
// an evaluator per task (the parallel HD and fault-simulation drivers)
// would otherwise allocate len(Gates)×words words per clone; Release puts
// the buffer back so the next Clone or ForProgram reuses it.
var valsPool sync.Pool

// grabVals returns a zeroed buffer of n words, reusing a pooled one when
// it is large enough.
func grabVals(n int) []uint64 {
	if p, ok := valsPool.Get().(*[]uint64); ok {
		if cap(*p) >= n {
			v := (*p)[:n]
			for i := range v {
				v[i] = 0
			}
			return v
		}
	}
	return make([]uint64, n)
}

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
		vals:  grabVals(prog.NumNodes() * words),
	}, nil
}

// Program returns the compiled program the evaluator runs; it is
// immutable and may be shared with other evaluators and backends.
func (p *Parallel) Program() *ir.Program { return p.prog }

// Clone returns an independent evaluator for the same circuit and word
// count. The immutable compiled program is shared; only the value
// buffer is private, so clones are cheap and safe to run concurrently.
// Pair with Release when the clone is short-lived.
func (p *Parallel) Clone() *Parallel {
	return &Parallel{
		prog:  p.prog,
		words: p.words,
		vals:  grabVals(p.prog.NumNodes() * p.words),
	}
}

// Release returns the evaluator's value buffer to a shared pool for reuse
// by later ForProgram/Clone calls. The evaluator must not be used
// afterwards.
func (p *Parallel) Release() {
	v := p.vals
	p.vals = nil
	valsPool.Put(&v)
}

// Words returns the number of 64-pattern words per node.
func (p *Parallel) Words() int { return p.words }

// Patterns returns the number of patterns evaluated per run (words × 64).
func (p *Parallel) Patterns() int { return p.words * 64 }

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

// Evaluator is a reusable single-pattern evaluator over a compiled
// program. It amortizes the per-node value buffer across calls, so
// oracles and attack loops that evaluate the same circuit thousands of
// times pay the compile cost once and no allocation per query beyond
// the returned output slice. Not safe for concurrent use; clone per
// goroutine (or call ir.Program.Eval, which is).
type Evaluator struct {
	prog *ir.Program
	vals []bool
}

// EvaluatorFor returns a reusable single-pattern evaluator over an
// already-compiled program.
func EvaluatorFor(prog *ir.Program) *Evaluator {
	return &Evaluator{prog: prog, vals: make([]bool, prog.NumNodes())}
}

// Program returns the evaluator's compiled program.
func (e *Evaluator) Program() *ir.Program { return e.prog }

// Eval evaluates one pattern and returns a fresh primary-output slice in
// declaration order.
func (e *Evaluator) Eval(pi, key []bool) ([]bool, error) {
	if len(pi) != e.prog.NumInputs() {
		return nil, fmt.Errorf("sim: got %d primary input bits, circuit has %d", len(pi), e.prog.NumInputs())
	}
	if len(key) != e.prog.NumKeys() {
		return nil, fmt.Errorf("sim: got %d key bits, circuit has %d", len(key), e.prog.NumKeys())
	}
	e.prog.EvalInto(e.vals, pi, key)
	out := make([]bool, e.prog.NumOutputs())
	for i, id := range e.prog.POs {
		out[i] = e.vals[id]
	}
	return out, nil
}

// Eval evaluates the circuit on a single pattern given as primary-input and
// key bit slices, returning the primary output bits in declaration order.
// It compiles the circuit per call; loops should hold an Evaluator (or a
// compiled ir.Program) instead.
func Eval(c *netlist.Circuit, pi, key []bool) ([]bool, error) {
	prog, err := ir.Compile(c)
	if err != nil {
		return nil, err
	}
	return prog.Eval(pi, key)
}

// PopCount returns the number of set bits across the first n bits of w.
func PopCount(w []uint64, n int) int {
	total := 0
	full := n / 64
	for i := 0; i < full && i < len(w); i++ {
		total += bits.OnesCount64(w[i])
	}
	if rem := n % 64; rem > 0 && full < len(w) {
		total += bits.OnesCount64(w[full] & (1<<uint(rem) - 1))
	}
	return total
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
