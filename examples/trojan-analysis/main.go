// Trojan analysis: replay the five foundry-Trojan scenarios of the
// paper's Section III against chips built with the basic and the modified
// OraP scheme, and print each Trojan's payload cost under the paper's
// countermeasures.
//
// Run with: go run ./examples/trojan-analysis
package main

import (
	"fmt"
	"log"

	"orap/internal/exp"
	"orap/internal/lfsr"
	"orap/internal/trojan"
)

func main() {
	fmt.Println("Section III threat model: an untrusted foundry fabricates the chip with a")
	fmt.Println("Trojan, buys a functional part from the open market, triggers the Trojan and")
	fmt.Println("attacks through scan. The chip must keep its original functionality, so every")
	fmt.Println("payload gate risks side-channel detection — the countermeasures maximize that")
	fmt.Println("payload.")
	fmt.Println()

	rows, err := exp.TrojanStudy(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(exp.FormatTrojanStudy(rows))
	fmt.Println()

	fmt.Println("Reading the table:")
	fmt.Println("  (a)/(b) suppress the key-register reset: they work behaviourally against both")
	fmt.Println("          schemes, but cost ≥64 GE on a 128-bit register (one pulse-generator")
	fmt.Println("          NAND per cell, or one bypass mux per cell under interleaved placement),")
	fmt.Println("          large enough for power side-channel detection.")
	fmt.Println("  (c)     a shadow key register works too, at an even larger payload.")
	fmt.Println("  (d)     XOR-tree reconstruction of the (linear) LFSR is exact — and enormous.")
	fmt.Println("  (e)     freezing the flip-flops is nearly free (a few gates) and defeats the")
	fmt.Println("          BASIC scheme: that is precisely why Fig. 3 feeds circuit responses")
	fmt.Println("          into the reseeding points. Against the MODIFIED scheme the frozen")
	fmt.Println("          (wrong) responses corrupt the generated key and the attack fails.")
	fmt.Println()

	// The designer's lever against scenario (d): sweep the LFSR design
	// space and show how the XOR-tree payload grows with mixing.
	sweep, err := exp.XorTreeSweep()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Attack-(d) payload across the LFSR design space (128-bit key):")
	fmt.Print(exp.FormatXorTreeSweep(sweep))
	fmt.Println()

	// Show the paper's specific arithmetic for scenario (a).
	p := trojan.PayloadA(128)
	fmt.Printf("Paper cross-check — %v (the paper says \"roughly 64 NAND2 gates\")\n", p)

	// And a concrete scenario-(d) bill for the paper's default wiring.
	cfg := lfsr.Config{N: 128, Taps: lfsr.StandardTaps(128, 8), Inject: lfsr.AllInject(128)}
	d, err := trojan.PayloadD(cfg, lfsr.UniformSchedule(4, 2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Scenario (d) with 4 seeds and 2 free-run cycles: %v\n", d)
}
