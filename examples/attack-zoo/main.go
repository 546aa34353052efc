// Attack zoo: every attack in the repository against one compound defense
// (weighted logic locking + SARLock), through an unprotected oracle and
// through OraP. Shows in one run why the paper protects the oracle rather
// than hardening the netlist further.
//
// Run with: go run ./examples/attack-zoo
package main

import (
	"fmt"
	"log"

	"orap/internal/attack"
	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

func main() {
	const seed = 13
	prof, err := benchgen.ProfileByName("b21")
	if err != nil {
		log.Fatal(err)
	}
	scaled := prof.Scale(0.004)
	design, err := benchgen.Generate(scaled, seed)
	if err != nil {
		log.Fatal(err)
	}
	// Compound defense: weighted locking for corruption + SARLock for SAT
	// resistance, the netlist-hardening state of the art the paper
	// contrasts itself against.
	r := rng.New(seed)
	l, err := lock.Stack(design,
		func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.Weighted(c, lock.WeightedOptions{KeyBits: 9, ControlWidth: 3, KeyGates: 9, Rand: r})
		},
		func(c *netlist.Circuit) (*lock.Locked, error) { return lock.SARLock(c, 6, r) },
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("defense: weighted (9 bits) + SARLock (6 bits) on %s\n", design.Name)
	fmt.Printf("%-11s | %-24s | %-24s\n", "attack", "vs unprotected oracle", "vs OraP oracle")
	fmt.Println("------------+--------------------------+-------------------------")

	// Channel telemetry per attack×oracle cell, summarized after the table.
	type channelRow struct {
		attack string
		prot   string
		stats  oracle.ChannelStats
	}
	var channel []channelRow

	run := func(name string, f func(o oracle.Oracle, seed uint64) ([]bool, int, error)) {
		line := fmt.Sprintf("%-11s |", name)
		for _, prot := range []scan.Protection{scan.None, scan.OraPBasic} {
			o := newOracle(l, scaled, prot, seed)
			key, queries, err := f(o, seed)
			channel = append(channel, channelRow{name, prot.String(), o.Stats()})
			var verdict string
			switch {
			case err != nil:
				verdict = "not applicable"
			case key == nil:
				verdict = "bits undetermined"
			default:
				ok, verr := attack.VerifyKey(l.Circuit, design, key)
				if verr != nil {
					log.Fatal(verr)
				}
				if ok {
					verdict = fmt.Sprintf("KEY STOLEN (%d q)", queries)
				} else {
					ref, _ := oracle.NewComb(design, nil)
					dis, _ := attack.SampleDisagreement(l.Circuit, key, ref, 256, rng.New(seed+5))
					if dis <= 0.05 {
						// Approximate attacks (Double DIP, AppSAT) settle
						// with a key wrong on a vanishing input fraction —
						// their published success criterion.
						verdict = fmt.Sprintf("APPROX KEY %.0f%% err (%dq)", 100*dis, queries)
					} else {
						verdict = fmt.Sprintf("wrong key %.0f%% err (%dq)", 100*dis, queries)
					}
				}
			}
			line += fmt.Sprintf(" %-24s |", verdict)
		}
		fmt.Println(line)
	}

	budget := attack.Budgets{MaxIterations: 512}
	run("SAT", func(o oracle.Oracle, s uint64) ([]bool, int, error) {
		res, err := attack.SAT(l.Circuit, o, budget)
		return keyOf(res), queriesOf(res, o), err
	})
	run("DoubleDIP", func(o oracle.Oracle, s uint64) ([]bool, int, error) {
		res, err := attack.DoubleDIP(l.Circuit, o, budget)
		return keyOf(res), queriesOf(res, o), err
	})
	run("AppSAT", func(o oracle.Oracle, s uint64) ([]bool, int, error) {
		res, err := attack.AppSAT(l.Circuit, o, attack.AppSATOptions{Budgets: budget, Rand: rng.New(s + 1)})
		return keyOf(res), queriesOf(res, o), err
	})
	run("HillClimb", func(o oracle.Oracle, s uint64) ([]bool, int, error) {
		res, err := attack.HillClimb(l.Circuit, o, attack.HillOptions{Patterns: 256, Restarts: 16, Rand: rng.New(s + 2)})
		return keyOf(res), queriesOf(res, o), err
	})
	run("Sensitize", func(o oracle.Oracle, s uint64) ([]bool, int, error) {
		res, err := attack.Sensitize(l.Circuit, o, attack.SensitizeOptions{Rand: rng.New(s + 3)})
		if res == nil {
			return nil, 0, err
		}
		all := true
		for _, d := range res.Determined {
			all = all && d
		}
		if !all {
			return nil, res.OracleQueries, err // partial keys don't count
		}
		return res.Key, res.OracleQueries, err
	})
	run("Bypass", func(o oracle.Oracle, s uint64) ([]bool, int, error) {
		chosen := make([]bool, l.Circuit.NumKeys())
		res, err := attack.Bypass(l.Circuit, o, chosen, attack.BypassOptions{MaxPatches: 128})
		if err != nil {
			return nil, res.OracleQueries, err
		}
		// Treat the patched design as "key stolen" if it matches the
		// original everywhere (sampled).
		ref, _ := oracle.NewComb(design, nil)
		rr := rng.New(s + 4)
		wrong := 0
		x := make([]bool, design.NumInputs())
		for i := 0; i < 256; i++ {
			rr.Bits(x)
			want, _ := oracle.Query(ref, x)
			got, _ := res.Eval(x)
			for j := range want {
				if want[j] != got[j] {
					wrong++
					break
				}
			}
		}
		if wrong == 0 {
			return res.Key, res.OracleQueries, nil // design effectively stolen
		}
		return nil, res.OracleQueries, fmt.Errorf("patched design wrong on %d/256 samples", wrong)
	})

	// SPS is oracle-less: it inspects the netlist alone. Against this
	// compound defense it nominates SARLock's skewed flip wire; the paper
	// notes OraP itself exposes no such signal (see internal/attack tests).
	sps, err := attack.SPS(l.Circuit, attack.SPSOptions{Rand: rng.New(seed + 6)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if sps.Candidate >= 0 {
		fmt.Printf("SPS (oracle-less): flags node %d as a skewed key-fed wire — SARLock's flip\n", sps.Candidate)
		fmt.Println("signal. Cutting it removes SARLock, but the weighted layer (and OraP) remain.")
	} else {
		fmt.Println("SPS (oracle-less): no skewed key-fed signal found.")
	}
	fmt.Println()
	fmt.Println("Note how every oracle-based attack that succeeds on the left column fails on")
	fmt.Println("the right: the OraP chip's key register cleared on the scan-enable edge, so")
	fmt.Println("all observations describe the locked circuit.")

	// The channel view of the same sessions: what each attack cost on the
	// scan interface, and what the transcript cache saved.
	fmt.Println()
	fmt.Println("oracle channel usage per session:")
	fmt.Printf("%-11s | %-13s | %8s | %8s | %6s | %11s\n",
		"attack", "oracle", "queries", "unique", "hit%", "scan cycles")
	for _, c := range channel {
		fmt.Printf("%-11s | %-13s | %8d | %8d | %5.1f%% | %11d\n",
			c.attack, c.prot, c.stats.Queries, c.stats.Unique, 100*c.stats.HitRate(), c.stats.ScanCycles)
	}
}

func keyOf(res *attack.Result) []bool {
	if res == nil {
		return nil
	}
	return res.Key
}

func queriesOf(res *attack.Result, o oracle.Oracle) int {
	if res != nil && res.OracleQueries > 0 {
		return res.OracleQueries
	}
	return o.Queries()
}

func newOracle(l *lock.Locked, prof benchgen.Profile, prot scan.Protection, seed uint64) *oracle.Session {
	cfg, err := orap.Protect(l.Circuit, l.Key, prof.Pins, prof.PinOuts, prot, orap.Options{Rand: rng.New(seed + 9)})
	if err != nil {
		log.Fatal(err)
	}
	ch, err := scan.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := ch.Unlock(nil); err != nil {
		log.Fatal(err)
	}
	return oracle.NewSession(oracle.NewScan(ch), 0)
}
