// Package lock implements combinational logic-locking techniques:
//
//   - RandomXOR: EPIC-style random XOR/XNOR key-gate insertion, the
//     classical baseline every oracle-guided attack is evaluated on.
//   - Weighted: weighted logic locking (Karousos, Pexaras, Karybali,
//     Kalligeros, IOLTS'17), the fault-analysis-based, high-corruptibility
//     scheme the OraP paper pairs with its oracle protection.
//   - SARLock and AntiSAT: the classical SAT-resistant point-function
//     defenses, included as baselines for the attack-scaling studies.
//
// All techniques return the locked netlist together with the correct key;
// the locked circuit with the correct key applied is functionally
// equivalent to the original.
package lock

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// Locked bundles a locked circuit with its correct key.
//
// Key covers the key inputs the technique added, in order. When the input
// circuit was already locked (compound defenses), the new key inputs are
// numbered after the existing ones; use Stack to thread the full key.
type Locked struct {
	// Circuit is the locked netlist; its Keys list has one entry per key
	// bit, named keyinput0, keyinput1, ….
	Circuit *netlist.Circuit
	// Key is the correct key for the key inputs added by this technique.
	Key []bool
}

// Stack applies locking steps in sequence (inner defense first) and
// concatenates their keys, so compound defenses like "weighted locking
// plus SARLock" can be built and attacked as one circuit.
func Stack(c *netlist.Circuit, steps ...func(*netlist.Circuit) (*Locked, error)) (*Locked, error) {
	cur := c
	var key []bool
	for i, step := range steps {
		l, err := step(cur)
		if err != nil {
			return nil, fmt.Errorf("lock: stack step %d: %w", i, err)
		}
		cur = l.Circuit
		key = append(key, l.Key...)
	}
	if len(key) != cur.NumKeys() {
		return nil, fmt.Errorf("lock: stacked key width %d != circuit %d", len(key), cur.NumKeys())
	}
	return &Locked{Circuit: cur, Key: key}, nil
}

// replaceFanin rewires every consumer of old (gate fanins and primary
// outputs) to read from new instead, except for the consumers whose IDs
// are in keep (the freshly inserted key-gate logic that must still read
// the original signal).
func replaceFanin(c *netlist.Circuit, old, new int, keep map[int]bool) {
	for id := range c.Gates {
		if keep[id] {
			continue
		}
		fan := c.Gates[id].Fanin
		for i, f := range fan {
			if f == old {
				fan[i] = new
			}
		}
	}
	for i, o := range c.POs {
		if o == old {
			c.POs[i] = new
		}
	}
}

// lockableNodes returns candidate nodes for key-gate insertion: every
// logic gate and primary input that feeds something or is a primary
// output (constants and key inputs excluded), in ID order.
func lockableNodes(p *ir.Program) []int {
	isKey := make([]bool, p.NumNodes())
	for _, k := range p.Keys {
		isKey[k] = true
	}
	isPO := make([]bool, p.NumNodes())
	for _, o := range p.POs {
		isPO[o] = true
	}
	var nodes []int
	for id, op := range p.Ops {
		if op == ir.OpConst0 || op == ir.OpConst1 || isKey[id] {
			continue
		}
		// Only worth locking if observable: dead nodes skipped, but
		// primary outputs (no fanout, in POs) are fine.
		if len(p.FanoutSpan(id)) == 0 && !isPO[id] {
			continue
		}
		nodes = append(nodes, id)
	}
	return nodes
}

// RandomXOR locks the circuit with keyBits random XOR/XNOR key gates, the
// EPIC-style baseline. Each key gate is inserted on a distinct random net;
// XOR gates want key bit 0, XNOR gates want key bit 1, chosen uniformly.
// The input circuit is not modified.
func RandomXOR(c *netlist.Circuit, keyBits int, r *rng.Stream) (*Locked, error) {
	if keyBits <= 0 {
		return nil, fmt.Errorf("lock: non-positive key size %d", keyBits)
	}
	lc := c.Clone()
	lc.Name = c.Name + "_rnd" + fmt.Sprint(keyBits)
	prog, err := ir.Compile(lc)
	if err != nil {
		return nil, err
	}
	nodes := lockableNodes(prog)
	if len(nodes) < keyBits {
		return nil, fmt.Errorf("lock: circuit %q has only %d lockable nodes for %d key bits", c.Name, len(nodes), keyBits)
	}
	perm := r.Perm(len(nodes))
	key := make([]bool, keyBits)
	base := lc.NumKeys()
	for i := 0; i < keyBits; i++ {
		n := nodes[perm[i]]
		k, err := lc.AddKeyInput(fmt.Sprintf("keyinput%d", base+i))
		if err != nil {
			return nil, err
		}
		t := netlist.Xor
		if r.Bool() {
			t = netlist.Xnor
			key[i] = true
		}
		kg, err := lc.AddGate(t, fmt.Sprintf("kg%d", base+i), n, k)
		if err != nil {
			return nil, err
		}
		replaceFanin(lc, n, kg, map[int]bool{kg: true})
	}
	if _, err := ir.Compile(lc); err != nil {
		return nil, fmt.Errorf("lock: RandomXOR produced invalid circuit: %w", err)
	}
	return &Locked{Circuit: lc, Key: key}, nil
}
