package orap

import (
	"fmt"
	"testing"

	"orap/internal/audit"
	"orap/internal/ir"
	"orap/internal/rng"
	"orap/internal/scan"
)

// TestProtectedConfigsPassAudit runs the oracle-path auditor on
// Protect's output for both OraP schemes over several key widths and
// unlock schedules: no error-severity findings, and the effective key
// entropy (transfer-matrix rank) must equal the nominal LFSR width. The
// basic scheme reaches it with exactly the seeds asked for, one by
// default: every cell is a reseeding point, so no schedule needs a
// second seed. The unprotected variant must fail the same audit.
func TestProtectedConfigsPassAudit(t *testing.T) {
	for _, keyBits := range []int{3, 8, 12, 17} {
		_, l := lockedAdder(t, 41, keyBits)
		for _, prot := range []scan.Protection{scan.OraPBasic, scan.OraPModified} {
			for _, opts := range []Options{{}, {Seeds: 4, FreeRun: 2}} {
				name := fmt.Sprintf("%v/%d-bit key/Seeds %d", prot, keyBits, opts.Seeds)
				opts.Rand = rng.New(42)
				cfg, err := Protect(l.Circuit, l.Key, 5, 1, prot, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if prot == scan.OraPBasic && cfg.Schedule.NumSeeds() != max(opts.Seeds, 1) {
					t.Errorf("%s: %d seeds, want %d", name, cfg.Schedule.NumSeeds(), max(opts.Seeds, 1))
				}
				rep, err := audit.Oracle(cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if rep.HasErrors() {
					t.Errorf("%s: oracle audit errors on a synthesized configuration:\n%s", name, rep)
				}
				if rep.EffectiveEntropy != rep.NominalEntropy || rep.NominalEntropy != keyBits {
					t.Errorf("%s: effective entropy %d of %d, want full %d",
						name, rep.EffectiveEntropy, rep.NominalEntropy, keyBits)
				}

				prog, err := ir.Compile(cfg.Core)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				crep := audit.AnalyzeProgram(prog, cfg.Core, audit.Options{})
				if crep.HasErrors() {
					t.Errorf("%s: netlist audit errors on the protected core:\n%s", name, crep)
				}
			}
		}
	}

	_, l := lockedAdder(t, 41, 12)
	cfg, err := Protect(l.Circuit, l.Key, 5, 1, scan.None, Options{Rand: rng.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Oracle(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasErrors() {
		t.Fatalf("unprotected configuration passed the oracle audit:\n%s", rep)
	}
}
