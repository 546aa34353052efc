// Package trojan models the hardware-Trojan threat scenarios of Section
// III of the OraP paper: an attacker in an untrusted foundry modifies the
// chip (keeping its original functionality, since activated chips undergo
// standard tests and side-channel analysis in the owner's trusted
// environment), buys a functional part from the open market, triggers the
// Trojan and tries to use scan mode on the unlocked circuit.
//
// For each scenario the package provides (1) the payload hardware cost in
// NAND2 gate equivalents — the quantity the paper's countermeasures
// deliberately inflate so side-channel Trojan detection catches the
// modification — and (2) an executable simulation of the attack against a
// scan.Chip, showing whether the attacker obtains correct oracle
// responses.
package trojan

import (
	"fmt"
	"slices"

	"orap/internal/gf2"
	"orap/internal/lfsr"
	"orap/internal/oracle"
	"orap/internal/scan"
	"orap/internal/sim"
)

// Gate-equivalent costs (in NAND2 units) used by the payload accounting.
// The paper's arithmetic charges half a NAND2 for upgrading a NAND2 to a
// NAND3 ("roughly 64 NAND2 gates" for a 128-bit register); a 2-to-1 mux
// and a flip-flop use standard cell-library equivalents.
const (
	geNAND2ToNAND3 = 0.5
	geMux21        = 3.0
	geFlipFlop     = 6.0
	geXOR2         = 3.0
)

// Payload describes a Trojan's payload hardware cost.
type Payload struct {
	// Scenario is the paper's label, "a" through "e".
	Scenario string
	// Description summarizes the modification.
	Description string
	// GateEquivalents is the payload size in NAND2 equivalents (payload
	// only — the trigger circuit comes on top, as in the paper).
	GateEquivalents float64
}

// String renders the payload in one line.
func (p Payload) String() string {
	return fmt.Sprintf("scenario (%s): %s — %.1f GE payload", p.Scenario, p.Description, p.GateEquivalents)
}

// PayloadA is scenario (a): suppress the scan-enable-driven reset locally
// in every LFSR cell by upgrading each pulse generator's NAND2 to a NAND3
// driven by the trigger. Because the LFSR sits in the scan chains, the
// attacker cannot cut the scan-enable stem without losing scan
// functionality, so the modification must be per-cell.
func PayloadA(keyBits int) Payload {
	return Payload{
		Scenario:        "a",
		Description:     fmt.Sprintf("per-cell NAND2→NAND3 in %d pulse generators", keyBits),
		GateEquivalents: geNAND2ToNAND3 * float64(keyBits),
	}
}

// payloadB is scenario (b): suppress scan enable at the LFSR's stem and
// bypass the register in the scan chains. The countermeasure — placing
// LFSR cells before normal flip-flops, interleaved when several share a
// chain — forces one 2-to-1 multiplexer per LFSR cell, which exceeds the
// cost of scenario (a).
func payloadB(keyBits int) Payload {
	return Payload{
		Scenario:        "b",
		Description:     fmt.Sprintf("stem gating + %d bypass muxes (interleaved placement)", keyBits),
		GateEquivalents: 1 + geMux21*float64(keyBits),
	}
}

// payloadC is scenario (c): a shadow register that stores the key at the
// end of unlock, plus one multiplexer per bit to feed it to the key gates
// or scan it out.
func payloadC(keyBits int) Payload {
	return Payload{
		Scenario:        "c",
		Description:     fmt.Sprintf("%d-bit shadow register + %d muxes", keyBits, keyBits),
		GateEquivalents: (geFlipFlop + geMux21) * float64(keyBits),
	}
}

// PayloadD is scenario (d): symbolic simulation of the LFSR gives each key
// bit as a GF(2)-linear expression of the injected seed bits; the Trojan
// latches every seed into separate registers and implements the
// expressions as XOR trees. The cost is computed exactly from the
// schedule: one flip-flop per stored seed bit, XOR2 gates per expression
// term beyond the first, and a mux per key bit to inject the result.
//
// This is the cost the defender controls through the characteristic
// polynomial, the number and position of reseeding points, the number of
// seeds, and the free-run cycles — the reason the key register is an LFSR
// rather than a plain shift register.
func PayloadD(cfg lfsr.Config, sc lfsr.Schedule) (Payload, error) {
	xors, err := XorTreeGates(cfg, sc)
	if err != nil {
		return Payload{}, err
	}
	seedBits := cfg.SeedWidth() * sc.NumSeeds()
	ge := geFlipFlop*float64(seedBits) + geXOR2*float64(xors) + geMux21*float64(cfg.N)
	return Payload{
		Scenario: "d",
		Description: fmt.Sprintf("%d seed-bit registers + %d XOR2 in trees + %d muxes",
			seedBits, xors, cfg.N),
		GateEquivalents: ge,
	}, nil
}

// XorTreeGates returns just the XOR2 count of scenario (d)'s trees, the
// quantity swept in the design-space studies.
func XorTreeGates(cfg lfsr.Config, sc lfsr.Schedule) (int, error) {
	m, err := lfsr.TransferMatrix(cfg, sc, lfsr.AllInject(cfg.SeedWidth()))
	if err != nil {
		return 0, err
	}
	xors := 0
	for r := 0; r < m.Rows; r++ {
		if w := m.Row(r).Weight(); w > 1 {
			xors += w - 1
		}
	}
	return xors, nil
}

// payloadE is scenario (e): freeze the normal flip-flops' reset/enable
// during unlock to exploit the one correct scanned-out response. Only a
// few control signals must be gated, so the payload is tiny — which is
// exactly why the basic scheme alone is insufficient and the modified
// scheme of Fig. 3 exists.
func payloadE() Payload {
	return Payload{
		Scenario:        "e",
		Description:     "gate reset/enable of normal flip-flops during unlock",
		GateEquivalents: 6,
	}
}

// Payloads returns the full Section-III payload table for a key width and
// unlock schedule.
func Payloads(cfg lfsr.Config, sc lfsr.Schedule) ([]Payload, error) {
	d, err := PayloadD(cfg, sc)
	if err != nil {
		return nil, err
	}
	return []Payload{
		PayloadA(cfg.N),
		payloadB(cfg.N),
		payloadC(cfg.N),
		d,
		payloadE(),
	}, nil
}

// AttackOutcome reports a simulated Trojan-assisted oracle access.
type AttackOutcome struct {
	// Scenario is the paper's label.
	Scenario string
	// CorrectResponse reports whether the attacker obtained the chip's
	// correct (unlocked) response for their chosen pattern.
	CorrectResponse bool
	// RecoveredKey is the key material the attack exposed (nil if none).
	RecoveredKey []bool
}

// reference computes the correct core response for pattern x under key.
func reference(cfg scan.Config, x, key []bool) ([]bool, error) {
	return sim.Eval(cfg.Core, x, key)
}

// SimulateSuppressReset runs scenarios (a)/(b) behaviourally: with the
// key-register reset suppressed, the attacker unlocks the chip and then
// queries it through scan. The attack succeeds functionally — the
// defense against it is detection, because the payload cannot be small.
func SimulateSuppressReset(cfg scan.Config, trueKey []bool, x []bool) (AttackOutcome, error) {
	ch, err := scan.New(cfg)
	if err != nil {
		return AttackOutcome{}, err
	}
	ch.ArmTrojans(scan.Trojans{SuppressKeyReset: true})
	if err := ch.Unlock(nil); err != nil {
		return AttackOutcome{}, err
	}
	resp, err := oracle.Query(oracle.NewScan(ch), x)
	if err != nil {
		return AttackOutcome{}, err
	}
	want, err := reference(cfg, x, trueKey)
	if err != nil {
		return AttackOutcome{}, err
	}
	// With the reset gone, the attacker can also scan the key register
	// straight out.
	ch.SetScanEnable(true)
	leaked, err := ch.ScanOutKey()
	ch.SetScanEnable(false)
	if err != nil {
		leaked = nil
	}
	return AttackOutcome{
		Scenario:        "a/b",
		CorrectResponse: slices.Equal(resp, want),
		RecoveredKey:    leaked,
	}, nil
}

// SimulateShadowKey runs scenario (c): the shadow register snapshots the
// key at the end of unlock and the attacker reads it back.
func SimulateShadowKey(cfg scan.Config, trueKey []bool) (AttackOutcome, error) {
	ch, err := scan.New(cfg)
	if err != nil {
		return AttackOutcome{}, err
	}
	ch.ArmTrojans(scan.Trojans{ShadowKey: true})
	if err := ch.Unlock(nil); err != nil {
		return AttackOutcome{}, err
	}
	leaked, err := ch.ReadShadow()
	if err != nil {
		return AttackOutcome{}, err
	}
	return AttackOutcome{
		Scenario:        "c",
		CorrectResponse: slices.Equal(leaked, trueKey),
		RecoveredKey:    leaked,
	}, nil
}

// SimulateXorTree runs scenario (d): the Trojan latched the seeds fed
// during unlock and reconstructs the key with the symbolic transfer
// matrix (the XOR trees' function). For the basic scheme this recovers
// the key exactly; the defense is again the payload size, computed by
// PayloadD.
func SimulateXorTree(cfg scan.Config, trueKey []bool) (AttackOutcome, error) {
	if cfg.Protection != scan.OraPBasic {
		return AttackOutcome{}, fmt.Errorf("trojan: XOR-tree reconstruction modelled for the basic scheme only")
	}
	m, err := lfsr.TransferMatrix(cfg.LFSR, cfg.Schedule, lfsr.AllInject(cfg.LFSR.SeedWidth()))
	if err != nil {
		return AttackOutcome{}, err
	}
	// Stack the latched seeds in feeding order, mapping memory-driven
	// positions into the full injection width.
	w := cfg.LFSR.SeedWidth()
	stacked := gf2.NewVec(w * cfg.Schedule.NumSeeds())
	for i, s := range cfg.Seeds {
		for j, pos := range cfg.MemInject {
			if s.Bit(j) {
				stacked.SetBit(i*w+pos, true)
			}
		}
	}
	rec := m.MulVec(stacked)
	return AttackOutcome{
		Scenario:        "d",
		CorrectResponse: rec.Equal(gf2.FromBools(trueKey)),
		RecoveredKey:    rec.Bools(),
	}, nil
}

// SimulateFreezeFFs runs scenario (e): the attacker scans their pattern
// into the normal flip-flops, freezes them, lets the controller unlock,
// then captures one clock and scans the response out. Against the basic
// scheme this yields one correct response per unlock; against the
// modified scheme the frozen flip-flops feed wrong values into the LFSR,
// the generated key is wrong, and the captured response is (with
// overwhelming probability) wrong too.
func SimulateFreezeFFs(cfg scan.Config, trueKey []bool, x []bool) (AttackOutcome, error) {
	if len(x) != cfg.Core.NumInputs() {
		return AttackOutcome{}, fmt.Errorf("trojan: pattern width %d != core inputs %d", len(x), cfg.Core.NumInputs())
	}
	ch, err := scan.New(cfg)
	if err != nil {
		return AttackOutcome{}, err
	}
	pins := x[:cfg.RealPIs]
	ffPart := x[cfg.RealPIs:]

	// Shift the desired state in while the chip is (naturally) locked.
	ch.SetScanEnable(true)
	if err := ch.ScanInFFs(ffPart); err != nil {
		return AttackOutcome{}, err
	}
	ch.SetScanEnable(false)

	// Trigger the Trojan and let the controller unlock; the frozen
	// flip-flops survive the unlock sequence.
	ch.ArmTrojans(scan.Trojans{FreezeFFs: true})
	if err := ch.Unlock(pins); err != nil {
		return AttackOutcome{}, err
	}
	ch.ArmTrojans(scan.Trojans{}) // release for the capture clock

	pinOut, err := ch.CaptureClock(pins)
	if err != nil {
		return AttackOutcome{}, err
	}
	ch.SetScanEnable(true)
	ffOut, err := ch.ScanOutFFs()
	if err != nil {
		return AttackOutcome{}, err
	}
	ch.SetScanEnable(false)
	resp := append(append([]bool(nil), pinOut...), ffOut...)

	want, err := reference(cfg, x, trueKey)
	if err != nil {
		return AttackOutcome{}, err
	}
	return AttackOutcome{
		Scenario:        "e",
		CorrectResponse: slices.Equal(resp, want),
	}, nil
}
