package lock

import (
	"testing"

	"orap/internal/audit"
	"orap/internal/check"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/rng"
)

// TestLockedOutputsPassAudit runs the security analyzer on each
// technique's output right after construction. No scheme may leave
// removable key logic behind (an error-severity key-removable finding
// would mean the locker wired a key bit that cannot affect the
// function), and the fingerprint rule must classify each scheme the
// way its literature does: random XOR insertion and the point-function
// family are identifiable (warnings), weighted control cones are
// diffuse (info only).
func TestLockedOutputsPassAudit(t *testing.T) {
	base := circuits.RippleAdder(4)
	techniques := map[string]func() (*Locked, error){
		"randomxor": func() (*Locked, error) { return RandomXOR(base.Clone(), 4, rng.New(21)) },
		"weighted": func() (*Locked, error) {
			return Weighted(base.Clone(), WeightedOptions{KeyBits: 6, ControlWidth: 3, Rand: rng.New(22)})
		},
		"sarlock": func() (*Locked, error) { return SARLock(base.Clone(), 4, rng.New(23)) },
		"antisat": func() (*Locked, error) { return AntiSAT(base.Clone(), 4, rng.New(24)) },
		"ttlock":  func() (*Locked, error) { return TTLock(base.Clone(), 4, rng.New(25)) },
	}
	for name, build := range techniques {
		l, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := ir.Compile(l.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := audit.AnalyzeProgram(prog, l.Circuit, audit.Options{})
		for _, f := range rep.ByRule(audit.RuleKeyRemovable) {
			if f.Sev == check.Error {
				t.Errorf("%s: removable key logic in the locked output:\n%s", name, rep)
			}
		}
		fps := rep.ByRule(audit.RuleKeyFingerprint)
		switch name {
		case "randomxor", "sarlock", "antisat", "ttlock":
			warned := false
			for _, f := range fps {
				if f.Sev >= check.Warning {
					warned = true
				}
			}
			if !warned {
				t.Errorf("%s: expected a warning-severity fingerprint finding:\n%s", name, rep)
			}
		case "weighted":
			for _, f := range fps {
				if f.Sev > check.Info {
					t.Errorf("%s: control-cone fingerprint must stay info severity:\n%s", name, rep)
				}
			}
		}
	}
}
