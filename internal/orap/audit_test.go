package orap

import (
	"testing"

	"orap/internal/audit"
	"orap/internal/ir"
	"orap/internal/rng"
	"orap/internal/scan"
)

// TestProtectedConfigsPassAudit runs the oracle-path auditor on
// Protect's output for both OraP schemes: no error-severity findings,
// and the effective key entropy (transfer-matrix rank) must equal the
// nominal LFSR width — the property growSchedule exists to guarantee.
// The unprotected variant must fail the same audit.
func TestProtectedConfigsPassAudit(t *testing.T) {
	for _, prot := range []scan.Protection{scan.OraPBasic, scan.OraPModified} {
		_, l := lockedAdder(t, 41, 12)
		cfg, err := Protect(l.Circuit, l.Key, 5, 1, prot, Options{Rand: rng.New(42)})
		if err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		rep, err := audit.Oracle(cfg, nil)
		if err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		if rep.HasErrors() {
			t.Errorf("%v: oracle audit errors on a synthesized configuration:\n%s", prot, rep)
		}
		if rep.EffectiveEntropy != rep.NominalEntropy || rep.NominalEntropy != len(l.Key) {
			t.Errorf("%v: effective entropy %d of %d, want full %d",
				prot, rep.EffectiveEntropy, rep.NominalEntropy, len(l.Key))
		}

		prog, err := ir.Compile(cfg.Core)
		if err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		crep := audit.AnalyzeProgram(prog, cfg.Core, audit.Options{})
		if crep.HasErrors() {
			t.Errorf("%v: netlist audit errors on the protected core:\n%s", prot, crep)
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
