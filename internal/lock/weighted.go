package lock

import (
	"fmt"
	"math/bits"
	"sort"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sim"
)

// WeightedOptions configures weighted logic locking.
type WeightedOptions struct {
	// KeyBits is the key (LFSR) size n.
	KeyBits int
	// ControlWidth is the number of key inputs combined by each control
	// gate (the paper's Table I uses 3, or 5 for the largest circuits).
	ControlWidth int
	// KeyGates is the number of key gates to insert. Zero selects the
	// default KeyBits/ControlWidth (disjoint key groups, as in the
	// IOLTS'17 scheme).
	KeyGates int
	// Rand drives key generation and tie-breaking; required.
	Rand *rng.Stream
}

// Weighted locks the circuit with weighted logic locking: each key gate is
// an XOR/XNOR whose second input comes from a ControlWidth-input control
// gate (NAND or AND) over key inputs, raising the gate's actuation
// probability under a wrong key to 1−2^−w and with it the output
// corruptibility. Insertion locations are chosen by a fault-impact score
// (output observability × switching activity) — the package's stand-in
// for the fault-analysis selection of the original paper — with nodes on
// or near the critical path(s) deferred so the delay overhead stays low.
func Weighted(c *netlist.Circuit, opts WeightedOptions) (*Locked, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("lock: Weighted requires a random stream")
	}
	if opts.KeyBits <= 0 {
		return nil, fmt.Errorf("lock: non-positive key size %d", opts.KeyBits)
	}
	w := opts.ControlWidth
	if w <= 0 {
		return nil, fmt.Errorf("lock: non-positive control width %d", w)
	}
	if w > opts.KeyBits {
		return nil, fmt.Errorf("lock: control width %d exceeds key size %d", w, opts.KeyBits)
	}
	gates := opts.KeyGates
	if gates == 0 {
		gates = opts.KeyBits / w
	}
	if gates <= 0 {
		return nil, fmt.Errorf("lock: key size %d with control width %d yields no key gates", opts.KeyBits, w)
	}

	lc := c.Clone()
	lc.Name = fmt.Sprintf("%s_wll%d", c.Name, opts.KeyBits)

	// Rank candidate locations by fault impact, keeping key gates off the
	// critical path(s) where possible so the delay overhead stays near
	// zero ("0% delay overhead means that no key gates have been inserted
	// in a circuit's critical path(s)", Table I discussion).
	prog, err := ir.Compile(lc)
	if err != nil {
		return nil, err
	}
	scored, err := faultImpactScores(prog, opts.Rand)
	if err != nil {
		return nil, err
	}
	critical := criticalPathNodes(prog)
	candidates := lockableNodes(prog)
	nonCritical := candidates[:0:0]
	var criticalOnes []int
	for _, id := range candidates {
		if critical[id] {
			criticalOnes = append(criticalOnes, id)
		} else {
			nonCritical = append(nonCritical, id)
		}
	}
	sort.SliceStable(nonCritical, func(i, j int) bool {
		return scored[nonCritical[i]] > scored[nonCritical[j]]
	})
	sort.SliceStable(criticalOnes, func(i, j int) bool {
		return scored[criticalOnes[i]] > scored[criticalOnes[j]]
	})
	candidates = append(nonCritical, criticalOnes...)
	if len(candidates) < gates {
		return nil, fmt.Errorf("lock: circuit %q has %d lockable nodes for %d key gates", c.Name, len(candidates), gates)
	}

	// Correct key is random; control-gate inputs are inverted per bit so
	// the correct key is the unique sub-key deactivating each gate.
	key := make([]bool, opts.KeyBits)
	opts.Rand.Bits(key)
	base := lc.NumKeys()
	keyIDs := make([]int, opts.KeyBits)
	for i := range keyIDs {
		id, err := lc.AddKeyInput(fmt.Sprintf("keyinput%d", base+i))
		if err != nil {
			return nil, err
		}
		keyIDs[i] = id
	}

	for g := 0; g < gates; g++ {
		n := candidates[g]
		// Key group: disjoint windows, wrapping when KeyGates exceeds
		// KeyBits/w so every gate still gets w distinct bits.
		group := make([]int, w)
		for j := range group {
			group[j] = (g*w + j) % opts.KeyBits
		}
		// Build the control gate inputs with per-bit inversion.
		ctrlIn := make([]int, w)
		for j, b := range group {
			if key[b] {
				ctrlIn[j] = keyIDs[b]
			} else {
				inv, err := lc.AddGate(netlist.Not, fmt.Sprintf("kinv%d_%d_%d", base, g, j), keyIDs[b])
				if err != nil {
					return nil, err
				}
				ctrlIn[j] = inv
			}
		}
		// Randomly pick (NAND control, XOR key gate) or (AND, XNOR);
		// both deactivate exactly at the correct sub-key. A one-input
		// control "gate" degenerates to the (possibly inverted) key bit
		// itself — plain XOR/XNOR locking.
		ctrlType, kgType := netlist.Nand, netlist.Xor
		if opts.Rand.Bool() {
			ctrlType, kgType = netlist.And, netlist.Xnor
		}
		var ctrl int
		if len(ctrlIn) == 1 {
			if ctrlType == netlist.Nand {
				ctrl, err = lc.AddGate(netlist.Not, fmt.Sprintf("ctrl%d_%d", base, g), ctrlIn[0])
				if err != nil {
					return nil, err
				}
			} else {
				ctrl = ctrlIn[0]
			}
		} else {
			ctrl, err = lc.AddGate(ctrlType, fmt.Sprintf("ctrl%d_%d", base, g), ctrlIn...)
			if err != nil {
				return nil, err
			}
		}
		kg, err := lc.AddGate(kgType, fmt.Sprintf("kg%d_%d", base, g), n, ctrl)
		if err != nil {
			return nil, err
		}
		keep := map[int]bool{kg: true}
		replaceFanin(lc, n, kg, keep)
	}
	if _, err := ir.Compile(lc); err != nil {
		return nil, fmt.Errorf("lock: Weighted produced invalid circuit: %w", err)
	}
	return &Locked{Circuit: lc, Key: key}, nil
}

// faultImpactScores returns a per-node score approximating the output
// corruption a stuck fault (or key-gate flip) at the node would cause:
// the number of (sampled) reachable outputs weighted by the node's
// switching activity under random patterns.
func faultImpactScores(prog *ir.Program, r *rng.Stream) ([]float64, error) {
	// Sample up to 64 primary outputs and propagate reachability masks
	// backwards through the DAG.
	reach := make([]uint64, prog.NumNodes())
	outs := prog.POs
	if len(outs) > 64 {
		perm := r.Perm(len(outs))
		sampled := make([]int32, 64)
		for i := range sampled {
			sampled[i] = outs[perm[i]]
		}
		outs = sampled
	}
	for i, o := range outs {
		reach[o] |= 1 << uint(i%64)
	}
	for i := len(prog.Order) - 1; i >= 0; i-- {
		id := prog.Order[i]
		for _, f := range prog.FaninSpan(int(id)) {
			reach[f] |= reach[id]
		}
	}

	// Switching activity from one word (64 patterns) of random simulation.
	p, err := sim.ForProgram(prog, 1)
	if err != nil {
		return nil, err
	}
	p.RandomizeInputs(r)
	for _, id := range prog.Keys {
		p.SetInputConst(int(id), false)
	}
	p.Run()

	scores := make([]float64, prog.NumNodes())
	for id := range scores {
		ones := bits.OnesCount64(p.Value(id)[0])
		prob := float64(ones) / 64
		activity := 4 * prob * (1 - prob) // peaks at balanced signals
		scores[id] = float64(bits.OnesCount64(reach[id])) * (0.25 + activity)
	}
	return scores, nil
}

// criticalPathNodes marks every node lying on some longest input-to-output
// path: level(n) + downstream(n) equals the circuit depth.
func criticalPathNodes(prog *ir.Program) []bool {
	// downstream[n]: longest gate count from n to any primary output.
	down := make([]int32, prog.NumNodes())
	for i := len(prog.Order) - 1; i >= 0; i-- {
		id := prog.Order[i]
		best := int32(0)
		for _, fo := range prog.FanoutSpan(int(id)) {
			if d := down[fo] + 1; d > best {
				best = d
			}
		}
		down[id] = best
	}
	// A key gate inserted on a node adds a couple of logic levels (the
	// XOR plus, after decomposition, part of the control tree), so nodes
	// need that much slack for the circuit depth to stay put.
	const keyGateDepth = 3
	depth := int32(prog.Depth())
	crit := make([]bool, prog.NumNodes())
	for id := range crit {
		crit[id] = prog.Level[id]+down[id]+keyGateDepth > depth
	}
	return crit
}
