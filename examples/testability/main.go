// Testability: the paper's Table II observation in miniature — because
// the OraP key register sits in the scan chains, the key inputs of the
// protected circuit are freely controllable during test, the key gates
// act as test points, and fault coverage does not degrade (it typically
// improves).
//
// Run with: go run ./examples/testability
package main

import (
	"fmt"
	"log"

	"orap/internal/atpg"
	"orap/internal/benchgen"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

func main() {
	const seed = 11
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		log.Fatal(err)
	}
	design, err := benchgen.Generate(prof.Scale(0.01), seed)
	if err != nil {
		log.Fatal(err)
	}
	locked, err := lock.Weighted(design, lock.WeightedOptions{
		KeyBits:      24,
		ControlWidth: 3,
		Rand:         rng.New(seed),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("The OraP-protected chip is TESTED LOCKED: the scan-enable edge cleared the")
	fmt.Println("key register, but the register is itself part of the scan chains, so ATPG")
	fmt.Println("may assign any key value — keys become controllable test inputs.")
	fmt.Println()

	for _, c := range []*netlist.Circuit{design, locked.Circuit} {
		sum, random, err := flow(c, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %6d faults | random phase %6.2f%% | final FC %6.2f%% | redundant %3d | aborted %d\n",
			c.Name, sum.Total, random, sum.Coverage(), sum.Redundant, sum.Aborted)
	}
	fmt.Println()
	fmt.Println("The protected circuit carries more faults (control and key gates) yet reaches")
	fmt.Println("at least the original coverage, mirroring the paper's Table II.")
}

func flow(c *netlist.Circuit, seed uint64) (atpg.Summary, float64, error) {
	prog, err := ir.Compile(c)
	if err != nil {
		return atpg.Summary{}, 0, err
	}
	sim, err := faultsim.ForProgram(prog)
	if err != nil {
		return atpg.Summary{}, 0, err
	}
	faults := faultsim.CollapseFaults(c)
	rand := sim.RunRandom(faults, 32, rng.New(seed+1))
	sum, err := atpg.Run(c, sim, rand, atpg.Options{})
	return sum, rand.Coverage(), err
}
