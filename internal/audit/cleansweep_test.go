// Clean-sweep gate, the security counterpart of check's: every shipped
// circuit locked with random XOR/XNOR insertion must fire at least one
// fingerprint or removability finding (the analyzer would otherwise
// miss the very weakness it was built to catch), no legitimate locking
// scheme may produce removability *errors*, and every weighted +
// OraP-protected configuration must audit with zero error-severity
// findings and full effective key entropy. cmd/orapaudit -sweep runs
// the same gate from the CLI for the make audit leg.
package audit_test

import (
	"testing"

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

func shipped() map[string]*netlist.Circuit {
	return map[string]*netlist.Circuit{
		"c17":         circuits.C17(),
		"fulladder":   circuits.FullAdder(),
		"rippleadder": circuits.RippleAdder(4),
		"parity":      circuits.Parity(8),
		"comparator4": circuits.Comparator4(),
		"mux21":       circuits.Mux21(),
	}
}

func lockers() map[string]func(*netlist.Circuit) (*lock.Locked, error) {
	return map[string]func(*netlist.Circuit) (*lock.Locked, error){
		"randomxor": func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.RandomXOR(c, 3, rng.New(11))
		},
		"weighted": func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.Weighted(c, lock.WeightedOptions{
				KeyBits: 6, ControlWidth: 3, Rand: rng.New(12),
			})
		},
		"sarlock": func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.SARLock(c, 3, rng.New(13))
		},
		"antisat": func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.AntiSAT(c, 4, rng.New(14))
		},
		"ttlock": func(c *netlist.Circuit) (*lock.Locked, error) {
			return lock.TTLock(c, 3, rng.New(15))
		},
	}
}

func TestAuditCleanSweep(t *testing.T) {
	for cname, c := range shipped() {
		for lname, lk := range lockers() {
			l, err := lk(c.Clone())
			if err != nil {
				// Locking precondition (circuit too small), not a defect.
				t.Logf("%s/%s: skipped (%v)", cname, lname, err)
				continue
			}
			prog, err := ir.Compile(l.Circuit)
			if err != nil {
				t.Fatalf("%s/%s: %v", cname, lname, err)
			}
			rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{})

			// No legitimate scheme leaves removable key logic behind.
			for _, f := range rep.ByRule(audit.RuleKeyRemovable) {
				if f.Sev == check.Error {
					t.Errorf("%s/%s: removability error on a legitimate scheme:\n%s", cname, lname, rep)
				}
			}

			// Random XOR insertion must be caught, every time.
			if lname == "randomxor" {
				hits := len(rep.ByRule(audit.RuleKeyFingerprint)) + len(rep.ByRule(audit.RuleKeyRemovable))
				if hits == 0 {
					t.Errorf("%s/randomxor: no fingerprint or removability finding:\n%s", cname, rep)
				}
			}

			// The paper's own pairing must come out clean end to end.
			if lname == "weighted" {
				if rep.HasErrors() {
					t.Errorf("%s/weighted: netlist audit errors:\n%s", cname, rep)
				}
				cfg, err := orap.Protect(l.Circuit, l.Key,
					l.Circuit.NumInputs(), l.Circuit.NumOutputs(),
					scan.OraPBasic, orap.Options{Rand: rng.New(16)})
				if err != nil {
					t.Fatalf("%s/weighted: protect: %v", cname, err)
				}
				orep, err := audit.Oracle(cfg, nil)
				if err != nil {
					t.Fatalf("%s/weighted: oracle audit: %v", cname, err)
				}
				if orep.HasErrors() {
					t.Errorf("%s/weighted+orap: oracle audit errors:\n%s", cname, orep)
				}
				if orep.EffectiveEntropy != orep.NominalEntropy || orep.NominalEntropy != len(l.Key) {
					t.Errorf("%s/weighted+orap: entropy %d/%d, want full %d",
						cname, orep.EffectiveEntropy, orep.NominalEntropy, len(l.Key))
				}
			}
		}
	}
}
