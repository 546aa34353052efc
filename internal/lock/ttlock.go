package lock

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// TTLock locks the circuit with TTLock (Yasin et al., GLSVLSI'17, the
// precursor of stripped-functionality logic locking): the function is
// *stripped* by hard-wiring a flip of one output on a single secret input
// cube, and a keyed restore unit flips the output again when the applied
// key matches the input pattern. With the correct key the two flips
// cancel everywhere; a wrong key corrupts exactly two input patterns
// (the protected cube and the wrongly restored one).
//
// Like SARLock this yields one-key-per-DIP SAT resistance with minimal
// corruption, but unlike SARLock the locked netlist without its restore
// unit is NOT the original function — removal attacks recover only the
// stripped circuit. The keyBits inputs compared are the first min(keyBits,
// inputs) primary inputs; the returned key is the protected cube.
func TTLock(c *netlist.Circuit, keyBits int, r *rng.Stream) (*Locked, error) {
	if c.NumOutputs() == 0 {
		return nil, fmt.Errorf("lock: circuit %q has no outputs", c.Name)
	}
	if keyBits <= 0 || keyBits > c.NumInputs() {
		keyBits = c.NumInputs()
	}
	lc := c.Clone()
	lc.Name = fmt.Sprintf("%s_tt%d", c.Name, keyBits)

	cube := make([]bool, keyBits)
	r.Bits(cube)
	base := lc.NumKeys()
	keyIDs := make([]int, keyBits)
	for i := range keyIDs {
		id, err := lc.AddKeyInput(fmt.Sprintf("keyinput%d", base+i))
		if err != nil {
			return nil, err
		}
		keyIDs[i] = id
	}

	// strip = AND_i (x_i XNOR cube_i): hard-wired cube comparator, part
	// of the stripped (manufactured) netlist.
	stripIn := make([]int, keyBits)
	for i := 0; i < keyBits; i++ {
		if cube[i] {
			stripIn[i] = lc.PIs[i]
		} else {
			stripIn[i] = lc.MustAddGate(netlist.Not, fmt.Sprintf("tt_sn%d_%d", i, base), lc.PIs[i])
		}
	}
	strip := andTree(lc, fmt.Sprintf("tt_strip%d", base), stripIn)

	// restore = AND_i (x_i XNOR k_i): the keyed restore unit
	// (programmable functionality restoration).
	restIn := make([]int, keyBits)
	for i := 0; i < keyBits; i++ {
		restIn[i] = lc.MustAddGate(netlist.Xnor, fmt.Sprintf("tt_rq%d_%d", i, base), lc.PIs[i], keyIDs[i])
	}
	restore := andTree(lc, fmt.Sprintf("tt_rest%d", base), restIn)

	target := lc.POs[0]
	stripped := lc.MustAddGate(netlist.Xor, fmt.Sprintf("tt_sflip%d", base), target, strip)
	restored := lc.MustAddGate(netlist.Xor, fmt.Sprintf("tt_out%d", base), stripped, restore)
	lc.POs[0] = restored
	if _, err := ir.Compile(lc); err != nil {
		return nil, fmt.Errorf("lock: TTLock produced invalid circuit: %w", err)
	}
	return &Locked{Circuit: lc, Key: cube}, nil
}
