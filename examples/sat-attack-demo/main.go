// SAT-attack demo: the same locked circuit attacked twice — through an
// unprotected scan chain (the attack recovers the key) and through an
// OraP-protected one (the attack converges to a key that reproduces the
// locked circuit, not the design).
//
// Run with: go run ./examples/sat-attack-demo
package main

import (
	"fmt"
	"log"

	"orap/internal/attack"
	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

func main() {
	const seed = 7
	// A small slice of the b20 profile keeps the SAT attack fast while
	// staying a "real" random-logic circuit.
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		log.Fatal(err)
	}
	design, err := benchgen.Generate(prof.Scale(0.004), seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design: %s", ir.MustCompile(design).Summary())

	locked, err := lock.Weighted(design, lock.WeightedOptions{
		KeyBits:      14,
		ControlWidth: 3,
		KeyGates:     14,
		Rand:         rng.New(seed),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("locked with %d key bits; true key %s\n\n", len(locked.Key), bits(locked.Key))

	scaled := prof.Scale(0.004)
	for _, prot := range []scan.Protection{scan.None, scan.OraPBasic} {
		// Most of the circuit's inputs and outputs connect to flip-flops
		// (the profile's pin/FF split), so the attacker genuinely needs
		// the scan chains to control and observe the combinational core —
		// the paper's threat model.
		cfg, err := orap.Protect(locked.Circuit, locked.Key,
			scaled.Pins, scaled.PinOuts, prot, orap.Options{Rand: rng.New(seed + 1)})
		if err != nil {
			log.Fatal(err)
		}
		chip, err := scan.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := chip.Unlock(nil); err != nil {
			log.Fatal(err)
		}
		o := oracle.NewScan(chip)

		fmt.Printf("=== SAT attack via %s oracle ===\n", prot)
		res, err := attack.SAT(locked.Circuit, o, attack.Budgets{MaxIterations: 4096})
		if err != nil {
			fmt.Printf("attack error: %v\n\n", err)
			continue
		}
		fmt.Printf("converged after %d DIPs, %d oracle queries, %d SAT conflicts\n",
			res.Iterations, res.OracleQueries, res.SolverStats.Conflicts)
		fmt.Printf("recovered key: %s\n", bits(res.Key))
		ok, err := attack.VerifyKey(locked.Circuit, design, res.Key)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Print("VERDICT: key is functionally CORRECT — the design is stolen\n\n")
		} else {
			ref, _ := oracle.NewComb(design, nil)
			dis, err := attack.SampleDisagreement(locked.Circuit, res.Key, ref, 512, rng.New(seed+2))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("VERDICT: key is WRONG — it reproduces the locked circuit, and disagrees with\n")
			fmt.Printf("the real design on %.0f%% of sampled inputs. The oracle was protected.\n\n", 100*dis)
		}
	}
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
