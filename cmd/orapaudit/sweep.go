package main

import (
	"fmt"
	"io"

	"orap/internal/attack"
	"orap/internal/audit"
	"orap/internal/check"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

// sweepCircuits are the shipped reference designs the regression gate
// audits; sweepLockers the five locking schemes applied to each. The
// seeds match internal/audit's clean-sweep test so the CLI leg and the
// unit test pin the same fixed point.
func sweepCircuits() []struct {
	name string
	c    *netlist.Circuit
} {
	return []struct {
		name string
		c    *netlist.Circuit
	}{
		{"c17", circuits.C17()},
		{"fulladder", circuits.FullAdder()},
		{"rippleadder", circuits.RippleAdder(4)},
		{"parity", circuits.Parity(8)},
		{"comparator4", circuits.Comparator4()},
		{"mux21", circuits.Mux21()},
	}
}

func sweepLockers() []struct {
	name string
	lk   func(*netlist.Circuit) (*lock.Locked, error)
} {
	return []struct {
		name string
		lk   func(*netlist.Circuit) (*lock.Locked, error)
	}{
		{"randomxor", func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.RandomXOR(c, 3, rng.New(11))
		}},
		{"weighted", func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.Weighted(c, lock.WeightedOptions{KeyBits: 6, ControlWidth: 3, Rand: rng.New(12)})
		}},
		{"sarlock", func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.SARLock(c, 3, rng.New(13))
		}},
		{"antisat", func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.AntiSAT(c, 4, rng.New(14))
		}},
		{"ttlock", func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.TTLock(c, 3, rng.New(15))
		}},
	}
}

// runSweep is the make audit leg: audit every shipped circuit under all
// five locking schemes, then the weighted + OraP pairing. Every locked
// configuration is additionally proven functionally equivalent to its
// original under the stored key with the symbolic KeyEquivalence check
// — an exact proof over every input pattern where the lock tests only
// sample — and attack.VerifyKey must agree with that proof. Exit 1 when
// a fixed-point expectation breaks, 2 on synthesis failure, 0 otherwise
// — warnings are the *point* of the sweep (random XOR must warn), so
// unlike file mode they do not change the exit code.
func runSweep(stdout, stderr io.Writer) int {
	audited, proofs, violations := 0, 0, 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Fprintf(stderr, "orapaudit: sweep: "+format+"\n", args...)
	}
	for _, sc := range sweepCircuits() {
		for _, sl := range sweepLockers() {
			l, err := sl.lk(sc.c.Clone())
			if err != nil {
				// Locking precondition (circuit too small), not a defect.
				fmt.Fprintf(stdout, "%-12s %-10s skipped (%v)\n", sc.name, sl.name, err)
				continue
			}
			prog, err := ir.Compile(l.Circuit)
			if err != nil {
				fmt.Fprintf(stderr, "orapaudit: sweep: %s/%s: %v\n", sc.name, sl.name, err)
				return exitInternal
			}
			rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{})
			audited++
			errs, warns, infos := rep.Counts()
			fmt.Fprintf(stdout, "%-12s %-10s %d errors, %d warnings, %d notes\n",
				sc.name, sl.name, errs, warns, infos)

			// Symbolic proof that the lock preserved the function: the
			// locked circuit under its stored key must be equivalent to
			// the original on every input pattern.
			eqRep, err := audit.KeyEquivalence(l.Circuit, sc.c, l.Key, audit.ExactOptions{})
			if err != nil {
				fmt.Fprintf(stderr, "orapaudit: sweep: %s/%s: equivalence proof: %v\n", sc.name, sl.name, err)
				return exitInternal
			}
			if eqRep.HasErrors() {
				fail("%s/%s: locked circuit is not equivalent to the original under its key:\n%s",
					sc.name, sl.name, eqRep)
			} else {
				proofs++
			}
			eq, err := attack.VerifyKey(l.Circuit, sc.c, l.Key)
			if err != nil {
				fmt.Fprintf(stderr, "orapaudit: sweep: %s/%s: key verification: %v\n", sc.name, sl.name, err)
				return exitInternal
			}
			if eq == eqRep.HasErrors() {
				fail("%s/%s: attack.VerifyKey says equivalent=%v, the BDD proof %v",
					sc.name, sl.name, eq, !eqRep.HasErrors())
			}

			for _, f := range rep.ByRule(audit.RuleKeyRemovable) {
				if f.Sev == check.Error {
					fail("%s/%s: removability error on a legitimate scheme:\n%s", sc.name, sl.name, rep)
				}
			}
			if sl.name == "randomxor" {
				hits := len(rep.ByRule(audit.RuleKeyFingerprint)) + len(rep.ByRule(audit.RuleKeyRemovable))
				if hits == 0 {
					fail("%s/randomxor: no fingerprint or removability finding", sc.name)
				}
			}
			if sl.name != "weighted" {
				continue
			}
			if rep.HasErrors() {
				fail("%s/weighted: netlist audit errors:\n%s", sc.name, rep)
			}
			cfg, err := orap.Protect(l.Circuit, l.Key,
				l.Circuit.NumInputs(), l.Circuit.NumOutputs(),
				scan.OraPBasic, orap.Options{Rand: rng.New(16)})
			if err != nil {
				fmt.Fprintf(stderr, "orapaudit: sweep: %s/weighted: protect: %v\n", sc.name, err)
				return exitInternal
			}
			orep, err := audit.Oracle(cfg, nil)
			if err != nil {
				fmt.Fprintf(stderr, "orapaudit: sweep: %s/weighted: oracle: %v\n", sc.name, err)
				return exitInternal
			}
			fmt.Fprintf(stdout, "%-12s %-10s oracle: %s\n", sc.name, "w+orap",
				fmt.Sprintf("%d errors, entropy %d/%d", len(orep.Errors()),
					orep.EffectiveEntropy, orep.NominalEntropy))
			if orep.HasErrors() {
				fail("%s/weighted+orap: oracle audit errors:\n%s", sc.name, orep)
			}
			if orep.EffectiveEntropy != orep.NominalEntropy || orep.NominalEntropy != len(l.Key) {
				fail("%s/weighted+orap: entropy %d/%d, want full %d",
					sc.name, orep.EffectiveEntropy, orep.NominalEntropy, len(l.Key))
			}
		}
	}
	fmt.Fprintf(stdout, "sweep: %d configurations audited, %d equivalence proofs, %d violations\n",
		audited, proofs, violations)
	if violations > 0 {
		return exitErrors
	}
	return exitClean
}
