package lock

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// SARLock locks the circuit with the SARLock point-function defense: a
// comparator flips one primary output exactly when the applied key equals
// the input pattern and differs from the correct key, so each SAT-attack
// DIP rules out only a single wrong key and the attack needs ~2^n
// iterations. Output corruptibility is minimal (one input pattern per
// wrong key), the weakness the OraP paper highlights in SAT-resistant
// schemes.
//
// The key width equals the circuit's primary input count when keyBits is
// zero or exceeds it; otherwise the first keyBits inputs are compared.
func SARLock(c *netlist.Circuit, keyBits int, r *rng.Stream) (*Locked, error) {
	if c.NumOutputs() == 0 {
		return nil, fmt.Errorf("lock: circuit %q has no outputs", c.Name)
	}
	if keyBits <= 0 || keyBits > c.NumInputs() {
		keyBits = c.NumInputs()
	}
	lc := c.Clone()
	lc.Name = fmt.Sprintf("%s_sar%d", c.Name, keyBits)

	key := make([]bool, keyBits)
	r.Bits(key)
	base := lc.NumKeys()
	keyIDs := make([]int, keyBits)
	for i := range keyIDs {
		id, err := lc.AddKeyInput(fmt.Sprintf("keyinput%d", base+i))
		if err != nil {
			return nil, err
		}
		keyIDs[i] = id
	}

	// match = AND_i (x_i XNOR k_i): applied key equals the input pattern.
	matchIn := make([]int, keyBits)
	for i := 0; i < keyBits; i++ {
		matchIn[i] = lc.MustAddGate(netlist.Xnor, fmt.Sprintf("sar_eq%d_%d", i, base), lc.PIs[i], keyIDs[i])
	}
	match := andTree(lc, fmt.Sprintf("sar_match%d", base), matchIn)

	// correct = AND_i (k_i XNOR k*_i): applied key equals the correct key.
	// The correct key is hard-wired through per-bit inversion, exactly as
	// a masked comparator implements it.
	corrIn := make([]int, keyBits)
	for i := 0; i < keyBits; i++ {
		if key[i] {
			corrIn[i] = keyIDs[i]
		} else {
			corrIn[i] = lc.MustAddGate(netlist.Not, fmt.Sprintf("sar_kn%d_%d", i, base), keyIDs[i])
		}
	}
	correct := andTree(lc, fmt.Sprintf("sar_corr%d", base), corrIn)
	notCorrect := lc.MustAddGate(netlist.Not, fmt.Sprintf("sar_ncorr%d", base), correct)

	flip := lc.MustAddGate(netlist.And, fmt.Sprintf("sar_flip%d", base), match, notCorrect)

	// XOR the flip signal into the first primary output.
	target := lc.POs[0]
	fo := lc.MustAddGate(netlist.Xor, fmt.Sprintf("sar_out%d", base), target, flip)
	lc.POs[0] = fo
	if _, err := ir.Compile(lc); err != nil {
		return nil, fmt.Errorf("lock: SARLock produced invalid circuit: %w", err)
	}
	return &Locked{Circuit: lc, Key: key}, nil
}

// AntiSAT locks the circuit with an Anti-SAT block: two complementary
// key-mixed functions g(X⊕K1) ∧ ḡ(X⊕K2) whose AND is constantly zero only
// when K1 = K2 (the correct relationship); any other key pair leaks a one
// on a tiny input set, again forcing ~2^n SAT iterations with negligible
// corruption. The returned key stacks K1 then K2 (width 2·keyBits).
func AntiSAT(c *netlist.Circuit, keyBits int, r *rng.Stream) (*Locked, error) {
	if c.NumOutputs() == 0 {
		return nil, fmt.Errorf("lock: circuit %q has no outputs", c.Name)
	}
	if keyBits <= 0 || keyBits > c.NumInputs() {
		keyBits = c.NumInputs()
	}
	lc := c.Clone()
	lc.Name = fmt.Sprintf("%s_anti%d", c.Name, keyBits)

	// Correct key: K1 = K2 = v for a random v.
	v := make([]bool, keyBits)
	r.Bits(v)
	key := make([]bool, 2*keyBits)
	copy(key, v)
	copy(key[keyBits:], v)

	base := lc.NumKeys()
	k1 := make([]int, keyBits)
	k2 := make([]int, keyBits)
	for i := 0; i < keyBits; i++ {
		id, err := lc.AddKeyInput(fmt.Sprintf("keyinput%d", base+i))
		if err != nil {
			return nil, err
		}
		k1[i] = id
	}
	for i := 0; i < keyBits; i++ {
		id, err := lc.AddKeyInput(fmt.Sprintf("keyinput%d", base+keyBits+i))
		if err != nil {
			return nil, err
		}
		k2[i] = id
	}

	// g = AND over (x_i ⊕ k1_i); ḡ = NAND over (x_i ⊕ k2_i).
	gIn := make([]int, keyBits)
	hIn := make([]int, keyBits)
	for i := 0; i < keyBits; i++ {
		gIn[i] = lc.MustAddGate(netlist.Xor, fmt.Sprintf("as_g%d_%d", i, base), lc.PIs[i], k1[i])
		hIn[i] = lc.MustAddGate(netlist.Xor, fmt.Sprintf("as_h%d_%d", i, base), lc.PIs[i], k2[i])
	}
	g := andTree(lc, fmt.Sprintf("as_gand%d", base), gIn)
	h := andTree(lc, fmt.Sprintf("as_hand%d", base), hIn)
	hbar := lc.MustAddGate(netlist.Not, fmt.Sprintf("as_hbar%d", base), h)
	flip := lc.MustAddGate(netlist.And, fmt.Sprintf("as_flip%d", base), g, hbar)

	target := lc.POs[0]
	fo := lc.MustAddGate(netlist.Xor, fmt.Sprintf("as_out%d", base), target, flip)
	lc.POs[0] = fo
	if _, err := ir.Compile(lc); err != nil {
		return nil, fmt.Errorf("lock: AntiSAT produced invalid circuit: %w", err)
	}
	return &Locked{Circuit: lc, Key: key}, nil
}

// andTree builds a balanced AND tree over the given node IDs and returns
// the root (the single ID itself when len(in) == 1).
func andTree(c *netlist.Circuit, prefix string, in []int) int {
	level := 0
	for len(in) > 1 {
		var next []int
		for i := 0; i+1 < len(in); i += 2 {
			next = append(next, c.MustAddGate(netlist.And, fmt.Sprintf("%s_l%d_%d", prefix, level, i/2), in[i], in[i+1]))
		}
		if len(in)%2 == 1 {
			next = append(next, in[len(in)-1])
		}
		in = next
		level++
	}
	return in[0]
}
