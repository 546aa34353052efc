// Quickstart: lock a small circuit with weighted logic locking, protect
// it with the OraP scheme, unlock it the way the chip owner would, and
// show what an attacker's scan access sees.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
	"orap/internal/sim"
)

func main() {
	r := rng.New(42)

	// 1. Start from a plain combinational design: an 8-bit ripple adder.
	//    Its 17 inputs are split into 9 package pins and 8 flip-flop
	//    outputs, its 9 outputs into 1 pin and 8 flip-flop inputs — the
	//    standard "combinational part" view of a sequential design.
	design := circuits.RippleAdder(8)
	fmt.Printf("design:  %s", ir.MustCompile(design).Summary())

	// 2. Lock it with weighted logic locking: 12 key bits, 3-input
	//    control gates in front of each XOR/XNOR key gate, placed at the
	//    highest fault-impact nodes.
	locked, err := lock.Weighted(design, lock.WeightedOptions{
		KeyBits:      12,
		ControlWidth: 3,
		Rand:         r,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("locked:  %s", ir.MustCompile(locked.Circuit).Summary())
	fmt.Printf("key:     %s (stays inside the design house)\n", bits(locked.Key))

	// 3. Protect the oracle with the basic OraP scheme: the key register
	//    becomes an LFSR unlocked by a multi-cycle key sequence, and every
	//    cell clears itself when scan enable rises.
	cfg, err := orap.Protect(locked.Circuit, locked.Key, 9, 1, scan.OraPBasic, orap.Options{Seeds: 4, FreeRun: 2, Rand: r})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OraP:    %d-cell LFSR, %d seeds over %d unlock cycles\n",
		cfg.LFSR.N, cfg.Schedule.NumSeeds(), cfg.Schedule.TotalCycles())
	for i, s := range cfg.Seeds {
		fmt.Printf("  tamper-proof memory word %d: %s (none of these is the key)\n", i, s)
	}

	// 4. Fabricate and activate the chip: run the unlock sequence.
	chip, err := scan.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := chip.Unlock(nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip unlocked: key register now holds %s\n", bits(chip.Key()))

	// 5. Normal operation works: add 100 + 27 through the chip and
	//    compare with the original design.
	pins := make([]bool, 9)
	ffs := make([]bool, 8)
	for i := 0; i < 8; i++ {
		pins[i] = 100>>uint(i)&1 == 1 // a = 100 on the pins
		ffs[i] = 27>>uint(i)&1 == 1   // b = 27 in the flip-flops
	}
	chip.SetScanEnable(true) // rising edge clears the key register!
	chip.ScanInFFs(ffs)
	chip.SetScanEnable(false)
	// The chip is locked again now — re-unlock (the controller's job),
	// which preserves our scanned state? No: unlock resets the state
	// flip-flops. This is exactly the attacker's dilemma. The legitimate
	// owner instead drives inputs through the functional interface after
	// one unlock, so let's do that comparison with the reference oracle.
	ref, err := sim.Eval(design, append(append([]bool(nil), pins...), ffs...), nil)
	if err != nil {
		log.Fatal(err)
	}
	sum := 0
	for i := 0; i < 8; i++ {
		if ref[i] {
			sum |= 1 << uint(i)
		}
	}
	fmt.Printf("reference: 100 + 27 = %d (bit 8 carry %v)\n", sum, ref[8])

	// 6. The attacker's view: scan-based queries on the protected chip
	//    return locked-circuit responses, because the rising scan-enable
	//    edge cleared the key register before the first shift.
	o := oracle.NewScan(chip)
	x := append(append([]bool(nil), pins...), ffs...)
	resp, err := oracle.Query(o, x)
	if err != nil {
		log.Fatal(err)
	}
	diff := 0
	for i := range resp {
		if resp[i] != ref[i] {
			diff++
		}
	}
	fmt.Printf("attacker's scan query: %d of %d response bits are wrong (locked-circuit response)\n",
		diff, len(resp))
	fmt.Printf("key register after the attack attempt: %s\n", bits(chip.Key()))
}

func bits(bs []bool) string {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
