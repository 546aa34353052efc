// Package scan models an activated chip at the level the OraP paper
// reasons about: a locked combinational core, its normal (state)
// flip-flops, the key-register LFSR, the scan chains that thread through
// both, and the per-cell pulse generators of Fig. 2 that clear the key
// register on every rising edge of scan enable.
//
// The model exposes exactly the controls an attacker on the tester has —
// scan enable, scan in/out, functional capture clocks — plus the hooks a
// foundry-inserted hardware Trojan would add (suppressing the key-register
// reset, freezing the normal flip-flops, or shadowing the key), so the
// threat scenarios of Section III replay as executable experiments.
package scan

import (
	"fmt"

	"orap/internal/gf2"
	"orap/internal/ir"
	"orap/internal/lfsr"
	"orap/internal/netlist"
	"orap/internal/sim"
)

// Protection selects the key-register behaviour.
type Protection int

// Protection levels.
const (
	// None models a conventional logic-locked chip: the key register is
	// loaded from tamper-proof memory and keeps its contents in test
	// mode. This is the configuration every oracle-guided attack
	// assumes.
	None Protection = iota
	// OraPBasic is the scheme of Fig. 1: the key register is an LFSR
	// unlocked by a multi-cycle key sequence, and every cell is cleared
	// by its pulse generator when scan enable rises.
	OraPBasic
	// OraPModified is the scheme of Fig. 3: additionally, half the
	// reseeding points are driven by circuit responses captured during
	// the (still locked) unlock cycles, so frozen flip-flops corrupt the
	// generated key.
	OraPModified
)

// String names the protection level.
func (p Protection) String() string {
	switch p {
	case None:
		return "none"
	case OraPBasic:
		return "orap-basic"
	case OraPModified:
		return "orap-modified"
	}
	return fmt.Sprintf("Protection(%d)", int(p))
}

// Trojans models the payloads an untrusted foundry could add. The
// corresponding payload hardware costs are computed in package trojan;
// here only the behavioural effect matters.
type Trojans struct {
	// SuppressKeyReset disables the pulse-generator reset of the key
	// register (scenarios (a) and (b) of the paper).
	SuppressKeyReset bool
	// FreezeFFs holds the normal flip-flops at their current values
	// during unlock (scenario (e)).
	FreezeFFs bool
	// ShadowKey snapshots the key register into a shadow register at the
	// end of every unlock (scenario (c)).
	ShadowKey bool
}

// Config describes a chip build.
type Config struct {
	// Core is the locked combinational core. Its primary inputs are
	// [pins..., FF outputs...] and its primary outputs are
	// [pins..., FF inputs...], the standard combinational-part view.
	Core *netlist.Circuit
	// RealPIs is the number of leading Core inputs that are package pins
	// (the rest are flip-flop outputs).
	RealPIs int
	// RealPOs is the number of leading Core outputs that are package
	// pins (the rest are flip-flop inputs). The flip-flop counts implied
	// by RealPIs and RealPOs must match.
	RealPOs int
	// Protection selects the key-register scheme.
	Protection Protection
	// LFSR is the key-register wiring; LFSR.N must equal the core's key
	// width. Ignored for Protection == None.
	LFSR lfsr.Config
	// Schedule is the unlock schedule (seed cycles and free runs).
	Schedule lfsr.Schedule
	// Seeds is the key sequence stored in tamper-proof memory, one
	// gf2.Vec of width len(MemInject) per seeded cycle.
	Seeds []gf2.Vec
	// MemInject lists the positions (indices into LFSR.Inject) fed by
	// the memory seeds.
	MemInject []int
	// RespInject lists the positions (indices into LFSR.Inject) fed by
	// circuit responses (OraPModified only); disjoint from MemInject.
	RespInject []int
	// RespTaps lists, for each RespInject entry, the flip-flop index
	// whose value drives that reseeding point.
	RespTaps []int
	// Key is the conventional stored key for Protection == None.
	Key []bool
}

// NumFFs returns the number of normal flip-flops implied by the core split.
func (c *Config) NumFFs() int { return c.Core.NumInputs() - c.RealPIs }

// Validate checks the structural consistency of the configuration.
func (c *Config) Validate() error {
	if c.Core == nil {
		return fmt.Errorf("scan: nil core")
	}
	if c.RealPIs < 0 || c.RealPIs > c.Core.NumInputs() {
		return fmt.Errorf("scan: RealPIs %d out of range", c.RealPIs)
	}
	if c.RealPOs < 0 || c.RealPOs > c.Core.NumOutputs() {
		return fmt.Errorf("scan: RealPOs %d out of range", c.RealPOs)
	}
	ffIn := c.Core.NumInputs() - c.RealPIs
	ffOut := c.Core.NumOutputs() - c.RealPOs
	if ffIn != ffOut {
		return fmt.Errorf("scan: %d FF outputs vs %d FF inputs", ffIn, ffOut)
	}
	switch c.Protection {
	case None:
		if len(c.Key) != c.Core.NumKeys() {
			return fmt.Errorf("scan: stored key width %d != core %d", len(c.Key), c.Core.NumKeys())
		}
	case OraPBasic, OraPModified:
		if err := c.LFSR.Validate(); err != nil {
			return err
		}
		if c.LFSR.N != c.Core.NumKeys() {
			return fmt.Errorf("scan: LFSR width %d != core key width %d", c.LFSR.N, c.Core.NumKeys())
		}
		if len(c.Seeds) != c.Schedule.NumSeeds() {
			return fmt.Errorf("scan: %d seeds for a %d-seed schedule", len(c.Seeds), c.Schedule.NumSeeds())
		}
		used := make(map[int]bool)
		for _, p := range append(append([]int(nil), c.MemInject...), c.RespInject...) {
			if p < 0 || p >= len(c.LFSR.Inject) {
				return fmt.Errorf("scan: inject position %d out of range", p)
			}
			if used[p] {
				return fmt.Errorf("scan: inject position %d assigned twice", p)
			}
			used[p] = true
		}
		for _, s := range c.Seeds {
			if s.Len() != len(c.MemInject) {
				return fmt.Errorf("scan: seed width %d != memory inject count %d", s.Len(), len(c.MemInject))
			}
		}
		if c.Protection == OraPModified {
			if len(c.RespInject) == 0 {
				return fmt.Errorf("scan: OraPModified requires response-driven inject points")
			}
			if len(c.RespTaps) != len(c.RespInject) {
				return fmt.Errorf("scan: %d response taps for %d response inject points", len(c.RespTaps), len(c.RespInject))
			}
			for _, t := range c.RespTaps {
				if t < 0 || t >= ffIn {
					return fmt.Errorf("scan: response tap FF %d out of range (%d FFs)", t, ffIn)
				}
			}
		} else if len(c.RespInject) != 0 {
			return fmt.Errorf("scan: response inject points given for non-modified protection")
		}
	default:
		return fmt.Errorf("scan: unknown protection %d", c.Protection)
	}
	return nil
}

// Chip is a behavioural model of the fabricated, activated chip.
type Chip struct {
	cfg     Config
	trojans Trojans

	ff       []bool  // normal flip-flop state
	keyReg   gf2.Vec // key register contents
	shadow   gf2.Vec // shadow register (ShadowKey trojan)
	se       bool    // scan enable level
	unlocked bool    // whether the unlock sequence has been run since the last key clear

	// core is the compiled combinational core; every capture clock
	// evaluates it.
	core *ir.Program

	// batch is the lazily built word-parallel evaluator behind ScanBatch
	// (batch.go) over core.
	batch *sim.Parallel

	// cycles counts test-clock cycles spent on the scan interface:
	// chain-length clocks per shift operation, one per capture or shift
	// cycle. Unlock is the activation procedure, not attacker channel
	// use, and is not counted.
	cycles int64

	// layout, when attached via SetLayout, enables the cycle-accurate
	// shift interface (shift.go).
	layout *Layout
}

// New builds a powered-on chip (all state cleared, locked).
func New(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core, err := ir.Compile(cfg.Core)
	if err != nil {
		return nil, err
	}
	return &Chip{
		cfg:    cfg,
		ff:     make([]bool, cfg.NumFFs()),
		keyReg: gf2.NewVec(cfg.Core.NumKeys()),
		shadow: gf2.NewVec(cfg.Core.NumKeys()),
		core:   core,
	}, nil
}

// Config returns the chip's build configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// ArmTrojans installs foundry Trojan behaviour (modelling a chip the
// attacker fabricated with modifications and then triggered).
func (ch *Chip) ArmTrojans(t Trojans) { ch.trojans = t }

// ScanEnable returns the current scan-enable level.
func (ch *Chip) ScanEnable() bool { return ch.se }

// ChainLength returns the length of the longest scan chain in shift
// cycles. With a layout attached this is the longest configured chain;
// otherwise the model assumes a single chain threading every flip-flop
// plus, on a protected chip, every key-register cell (the cells sit in
// the chains by design).
func (ch *Chip) ChainLength() int {
	if ch.layout != nil {
		m := 0
		for _, chain := range ch.layout.Chains {
			if len(chain) > m {
				m = len(chain)
			}
		}
		return m
	}
	n := len(ch.ff)
	if ch.cfg.Protection != None {
		n += ch.keyReg.Len()
	}
	return n
}

// CyclesPerQuery returns the modeled test-clock cost of one scan-protocol
// query: shift in (chain length), one capture clock, shift out (chain
// length) — 2·L+1.
func (ch *Chip) CyclesPerQuery() int64 { return 2*int64(ch.ChainLength()) + 1 }

// Cycles returns the test-clock cycles spent on the scan interface so
// far (shift and capture clocks; the unlock procedure is not counted).
func (ch *Chip) Cycles() int64 { return ch.cycles }

// Unlocked reports whether the controller believes the chip is unlocked
// (an unlock sequence ran and the key register was not cleared since).
func (ch *Chip) Unlocked() bool { return ch.unlocked }

// SetScanEnable drives the scan-enable pin. On a rising edge the pulse
// generators clear every key-register cell (unless a Trojan suppresses
// the reset) — the core mechanism of the OraP scheme.
func (ch *Chip) SetScanEnable(v bool) {
	rising := v && !ch.se
	ch.se = v
	if !rising {
		return
	}
	if ch.cfg.Protection == None {
		return // conventional key register: unaffected by scan
	}
	if ch.trojans.SuppressKeyReset {
		return
	}
	ch.keyReg = gf2.NewVec(ch.cfg.Core.NumKeys())
	ch.unlocked = false
}

// ScanInFFs shifts the given values into the normal flip-flops. The chip
// must be in scan mode.
func (ch *Chip) ScanInFFs(v []bool) error {
	if !ch.se {
		return fmt.Errorf("scan: ScanInFFs outside scan mode")
	}
	if len(v) != len(ch.ff) {
		return fmt.Errorf("scan: %d bits for %d flip-flops", len(v), len(ch.ff))
	}
	copy(ch.ff, v)
	ch.cycles += int64(ch.ChainLength())
	return nil
}

// ScanInKey shifts values into the key-register cells, which sit in the
// scan chains by design (Section II of the paper: this both blocks the
// local scan-enable-suppression Trojan and improves testability).
func (ch *Chip) ScanInKey(v []bool) error {
	if !ch.se {
		return fmt.Errorf("scan: ScanInKey outside scan mode")
	}
	if ch.cfg.Protection == None {
		return fmt.Errorf("scan: conventional key register is not scannable")
	}
	if len(v) != ch.keyReg.Len() {
		return fmt.Errorf("scan: %d bits for %d key cells", len(v), ch.keyReg.Len())
	}
	ch.keyReg = gf2.FromBools(v)
	ch.unlocked = false
	ch.cycles += int64(ch.ChainLength())
	return nil
}

// ScanOutFFs returns the current flip-flop contents (scan mode only).
func (ch *Chip) ScanOutFFs() ([]bool, error) {
	if !ch.se {
		return nil, fmt.Errorf("scan: ScanOutFFs outside scan mode")
	}
	ch.cycles += int64(ch.ChainLength())
	return append([]bool(nil), ch.ff...), nil
}

// ScanOutKey returns the current key-register contents via the scan
// chains. Under OraP this is only reachable after the rising scan-enable
// edge already cleared the register.
func (ch *Chip) ScanOutKey() ([]bool, error) {
	if !ch.se {
		return nil, fmt.Errorf("scan: ScanOutKey outside scan mode")
	}
	if ch.cfg.Protection == None {
		return nil, fmt.Errorf("scan: conventional key register is not scannable")
	}
	ch.cycles += int64(ch.ChainLength())
	return ch.keyReg.Bools(), nil
}

// ReadShadow returns the shadow register planted by the ShadowKey Trojan.
func (ch *Chip) ReadShadow() ([]bool, error) {
	if !ch.trojans.ShadowKey {
		return nil, fmt.Errorf("scan: no shadow-key trojan armed")
	}
	return ch.shadow.Bools(), nil
}

// evalCore evaluates the combinational core for the given pin values with
// the current flip-flop and key-register state. It returns the full core
// output vector.
func (ch *Chip) evalCore(pins []bool) ([]bool, error) {
	if len(pins) != ch.cfg.RealPIs {
		return nil, fmt.Errorf("scan: %d pin values for %d pins", len(pins), ch.cfg.RealPIs)
	}
	in := make([]bool, ch.cfg.Core.NumInputs())
	copy(in, pins)
	copy(in[ch.cfg.RealPIs:], ch.ff)
	return ch.core.Eval(in, ch.keyReg.Bools())
}

// CaptureClock applies one functional clock in normal mode: the core
// evaluates with the current state and key, pin outputs are returned, and
// the flip-flops capture their next state.
func (ch *Chip) CaptureClock(pins []bool) ([]bool, error) {
	if ch.se {
		return nil, fmt.Errorf("scan: CaptureClock during scan mode")
	}
	out, err := ch.evalCore(pins)
	if err != nil {
		return nil, err
	}
	copy(ch.ff, out[ch.cfg.RealPOs:])
	ch.cycles++
	return out[:ch.cfg.RealPOs], nil
}

// Unlock runs the logic-locking controller's unlock procedure.
//
// For a conventional chip the stored key is loaded into the key register.
// For OraP chips the controller first pulses scan enable to clear the
// register (the paper's reset idiom), then feeds the key sequence through
// the LFSR over the configured schedule while the still-locked circuit
// operates; under OraPModified the designated flip-flops feed half of the
// reseeding points each cycle. Pins are held at the given values (all
// zero if nil) for the duration, matching the synthesis-time assumption.
func (ch *Chip) Unlock(pins []bool) error {
	if pins == nil {
		pins = make([]bool, ch.cfg.RealPIs)
	}
	switch ch.cfg.Protection {
	case None:
		ch.keyReg = gf2.FromBools(ch.cfg.Key)
		ch.unlocked = true
		return nil
	}
	// Reset the key register via a scan-enable pulse.
	ch.SetScanEnable(true)
	ch.SetScanEnable(false)
	if !ch.trojans.FreezeFFs {
		// Normal flip-flops start the unlock sequence from reset.
		for i := range ch.ff {
			ch.ff[i] = false
		}
	}
	width := len(ch.cfg.LFSR.Inject)
	reg, err := lfsr.New(ch.cfg.LFSR)
	if err != nil {
		return err
	}
	if err := reg.SetState(ch.keyReg); err != nil {
		return err
	}
	seedIdx := 0
	step := func(seeded bool) error {
		inj := gf2.NewVec(width)
		if seeded {
			s := ch.cfg.Seeds[seedIdx]
			for i, pos := range ch.cfg.MemInject {
				if s.Bit(i) {
					inj.SetBit(pos, true)
				}
			}
			seedIdx++
		}
		if ch.cfg.Protection == OraPModified {
			for i, pos := range ch.cfg.RespInject {
				if ch.ff[ch.cfg.RespTaps[i]] {
					inj.SetBit(pos, true)
				}
			}
		}
		// The circuit operates (locked) during the unlock cycle; its
		// next state is captured unless a Trojan froze the flip-flops.
		ch.keyReg = reg.State()
		out, err := ch.evalCore(pins)
		if err != nil {
			return err
		}
		if !ch.trojans.FreezeFFs {
			copy(ch.ff, out[ch.cfg.RealPOs:])
		}
		return reg.Step(inj)
	}
	for _, fr := range ch.cfg.Schedule.FreeRunAfter {
		if err := step(true); err != nil {
			return err
		}
		for i := 0; i < fr; i++ {
			if err := step(false); err != nil {
				return err
			}
		}
	}
	ch.keyReg = reg.State()
	ch.unlocked = true
	if ch.trojans.ShadowKey {
		ch.shadow = ch.keyReg.Clone()
	}
	return nil
}

// Key returns the current key-register contents. This is a modelling
// convenience for experiments and tests — the physical chip offers no
// such port.
func (ch *Chip) Key() []bool { return ch.keyReg.Bools() }
