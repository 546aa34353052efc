package attack

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

// spsSkewThreshold flags signals whose estimated probability deviates
// from 1/2 by at least this much: p ≤ 0.05 or p ≥ 0.95, the "highly
// skewed" signals of the SPS paper.
const spsSkewThreshold = 0.45

// SPSOptions tunes the signal-probability-skew attack.
type SPSOptions struct {
	// Words is the number of 64-pattern words used to estimate signal
	// probabilities (default 64, i.e. 4096 random patterns).
	Words int
	// Rand drives the random patterns; required.
	Rand *rng.Stream
}

// SPSFinding is one suspicious signal located by the attack.
type SPSFinding struct {
	// Node is the skewed signal.
	Node int
	// Probability is its estimated one-probability under random inputs
	// and random keys.
	Probability float64
	// KeyDependent reports whether key inputs reach the node — a skewed,
	// key-fed AND is the Anti-SAT signature.
	KeyDependent bool
}

// SPSResult reports the attack outcome.
type SPSResult struct {
	// Findings lists skewed signals, most skewed first.
	Findings []SPSFinding
	// Candidate is the node the attack would cut (the most skewed
	// key-dependent signal), or -1 when the attack does not apply.
	Candidate int
}

// SPS runs the oracle-less signal-probability-skew attack of Yasin et
// al.: Anti-SAT's flip signal g(X⊕K1) ∧ ḡ(X⊕K2) is one with probability
// ~2^-n, so estimating signal probabilities under random inputs *and*
// random keys exposes it; the attacker then cuts the flip wire (sets it
// to its skewed value) and removes the block.
//
// Against OraP + weighted logic locking the attack finds no key-dependent
// skewed signal — exactly the paper's claim that "the proposed scheme
// neither has signals with high probability skew, nor by removing the
// LFSR and/or the key gates … the circuit will unlock". The caller
// interprets Candidate == -1 as "attack not applicable".
func SPS(locked *netlist.Circuit, opts SPSOptions) (*SPSResult, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("attack: SPS requires a random stream")
	}
	if opts.Words <= 0 {
		opts.Words = 64
	}
	prog, err := ir.Compile(locked)
	if err != nil {
		return nil, err
	}
	p, err := sim.ForProgram(prog, opts.Words)
	if err != nil {
		return nil, err
	}
	// Random inputs AND random key bits (per pattern): skew that
	// survives key randomization is structural.
	for _, id := range locked.AllInputs() {
		opts.Rand.Words(p.Value(id))
	}
	p.Run()

	keyCone := prog.TransitiveFanout(locked.Keys...)

	total := opts.Words * 64
	res := &SPSResult{Candidate: -1}
	for id, g := range locked.Gates {
		switch g.Type {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		ones := 0
		for _, w := range p.Value(id) {
			ones += bits.OnesCount64(w)
		}
		prob := float64(ones) / float64(total)
		if math.Abs(prob-0.5) < spsSkewThreshold {
			continue
		}
		res.Findings = append(res.Findings, SPSFinding{
			Node:         id,
			Probability:  prob,
			KeyDependent: keyCone[id],
		})
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		si := math.Abs(res.Findings[i].Probability - 0.5)
		sj := math.Abs(res.Findings[j].Probability - 0.5)
		return si > sj
	})
	for _, f := range res.Findings {
		if f.KeyDependent {
			res.Candidate = f.Node
			break
		}
	}
	return res, nil
}

// spsRemove applies the removal step on a candidate: the skewed signal is
// replaced by its dominant constant value, and the (now dead) generating
// logic falls away functionally. It returns a new circuit with its
// compiled program; the input is unmodified.
func spsRemove(locked *netlist.Circuit, finding SPSFinding) (*netlist.Circuit, *ir.Program, error) {
	if finding.Node < 0 || finding.Node >= locked.NumNodes() {
		return nil, nil, fmt.Errorf("attack: SPS candidate %d out of range", finding.Node)
	}
	c := locked.Clone()
	c.Name = locked.Name + "_sps"
	// Tie the signal to its dominant value.
	cNode, err := c.AddConst(finding.Probability >= 0.5, "")
	if err != nil {
		return nil, nil, err
	}
	// Rewire every consumer of the skewed node to the constant.
	for id := range c.Gates {
		fan := c.Gates[id].Fanin
		for i, f := range fan {
			if f == finding.Node {
				fan[i] = cNode
			}
		}
	}
	for i, o := range c.POs {
		if o == finding.Node {
			c.POs[i] = cNode
		}
	}
	prog, err := ir.Compile(c)
	if err != nil {
		return nil, nil, err
	}
	return c, prog, nil
}

// SPSCutKeyDead tries the skewed key-dependent findings in skew order and
// returns the first cut that leaves every key input disconnected from the
// outputs — the attacker's oracle-less success criterion: once the real
// flip wire is tied off, the whole point-function block (and with it all
// key dependence) falls out of the logic cone.
func SPSCutKeyDead(locked *netlist.Circuit, res *SPSResult) (*netlist.Circuit, SPSFinding, bool) {
	for _, f := range res.Findings {
		if !f.KeyDependent {
			continue
		}
		cut, prog, err := spsRemove(locked, f)
		if err != nil {
			continue
		}
		if keysDead(cut, prog) {
			return cut, f, true
		}
	}
	return nil, SPSFinding{}, false
}

// keysDead reports whether no key input of c, compiled as p, reaches
// any primary output.
func keysDead(c *netlist.Circuit, p *ir.Program) bool {
	if c.NumKeys() == 0 {
		return true
	}
	live := p.TransitiveFanin(c.POs...)
	for _, k := range c.Keys {
		if live[k] {
			return false
		}
	}
	return true
}
