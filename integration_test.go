package orap_test

import (
	"os"
	"path/filepath"
	"testing"

	"orap/internal/attack"
	"orap/internal/bench"
	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
)

// TestEndToEndFileWorkflow exercises the full tool pipeline at the file
// level, the way cmd/oraplock and cmd/orapattack are used: generate a
// design, serialize it, lock the reparsed copy, serialize the locked
// netlist, reparse it, and attack it — with both an unprotected and an
// OraP-gated chip as the oracle.
func TestEndToEndFileWorkflow(t *testing.T) {
	dir := t.TempDir()
	seed := uint64(2024)

	// Design → file → reparse.
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		t.Fatal(err)
	}
	scaled := prof.Scale(0.004)
	design, err := benchgen.Generate(scaled, seed)
	if err != nil {
		t.Fatal(err)
	}
	origPath := filepath.Join(dir, "design.bench")
	writeBench(t, origPath, design)
	design2 := parseBench(t, origPath)
	if design2.GateCount() != design.GateCount() || design2.NumOutputs() != design.NumOutputs() {
		t.Fatalf("round trip changed the design: %d gates, %d outputs vs %d, %d",
			design2.GateCount(), design2.NumOutputs(), design.GateCount(), design.NumOutputs())
	}

	// Lock the reparsed design → file → reparse.
	locked, err := lock.Weighted(design2, lock.WeightedOptions{
		KeyBits:      12,
		ControlWidth: 3,
		KeyGates:     12,
		Rand:         rng.New(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	lockedPath := filepath.Join(dir, "locked.bench")
	writeBench(t, lockedPath, locked.Circuit)
	locked2 := parseBench(t, lockedPath)
	if locked2.NumKeys() != 12 {
		t.Fatalf("locked round trip lost key inputs: %d", locked2.NumKeys())
	}

	// Attack through an unprotected chip: the key must fall.
	cfgNone, err := orap.Protect(locked2, locked.Key, scaled.Pins, scaled.PinOuts, scan.None, orap.Options{Rand: rng.New(seed + 1)})
	if err != nil {
		t.Fatal(err)
	}
	chip, err := scan.New(cfgNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := chip.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	res, err := attack.SAT(locked2, oracle.NewScan(chip), attack.Budgets{MaxIterations: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := attack.VerifyKey(locked2, design2, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("SAT attack via unprotected chip failed on the reparsed netlist")
	}

	// Attack through an OraP chip: the recovered key must NOT verify.
	cfgOraP, err := orap.Protect(locked2, locked.Key, scaled.Pins, scaled.PinOuts, scan.OraPBasic, orap.Options{Rand: rng.New(seed + 2)})
	if err != nil {
		t.Fatal(err)
	}
	chipP, err := scan.New(cfgOraP)
	if err != nil {
		t.Fatal(err)
	}
	if err := chipP.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	resP, err := attack.SAT(locked2, oracle.NewScan(chipP), attack.Budgets{MaxIterations: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if resP.Key != nil {
		okP, err := attack.VerifyKey(locked2, design2, resP.Key)
		if err != nil {
			t.Fatal(err)
		}
		if okP {
			t.Fatal("SAT attack via the OraP chip recovered a correct key — protection broken")
		}
	}
}

// TestEndToEndModifiedSchemeChip runs the full modified-scheme lifecycle:
// protect, unlock, verify functionality, then confirm the scenario-(e)
// freeze corrupts the key.
func TestEndToEndModifiedSchemeChip(t *testing.T) {
	seed := uint64(77)
	prof, err := benchgen.ProfileByName("b21")
	if err != nil {
		t.Fatal(err)
	}
	scaled := prof.Scale(0.01)
	design, err := benchgen.Generate(scaled, seed)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := lock.Weighted(design, lock.WeightedOptions{
		KeyBits:      18,
		ControlWidth: 3,
		Rand:         rng.New(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := orap.Protect(locked.Circuit, locked.Key, scaled.Pins, scaled.PinOuts, scan.OraPModified, orap.Options{Rand: rng.New(seed + 1)})
	if err != nil {
		t.Fatal(err)
	}
	chip, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := chip.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	got := chip.Key()
	for i := range got {
		if got[i] != locked.Key[i] {
			t.Fatal("modified-scheme chip unlocked to the wrong key")
		}
	}

	// Freeze trojan corrupts it.
	chip2, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip2.SetScanEnable(true)
	ffs := make([]bool, cfg.NumFFs())
	for i := range ffs {
		ffs[i] = i%3 == 0
	}
	if err := chip2.ScanInFFs(ffs); err != nil {
		t.Fatal(err)
	}
	chip2.SetScanEnable(false)
	chip2.ArmTrojans(scan.Trojans{FreezeFFs: true})
	if err := chip2.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	same := true
	for i, b := range chip2.Key() {
		if b != locked.Key[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("frozen flip-flops did not corrupt the modified-scheme key")
	}
}

func writeBench(t *testing.T, path string, c *netlist.Circuit) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := bench.Format(f, c); err != nil {
		t.Fatal(err)
	}
}

func parseBench(t *testing.T, path string) *netlist.Circuit {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := bench.Parse(f, filepath.Base(path))
	if err != nil {
		t.Fatal(err)
	}
	return c
}
