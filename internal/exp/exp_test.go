package exp

import (
	"strings"
	"testing"
)

func TestFormatTableAlignment(t *testing.T) {
	out := formatTable([]string{"A", "Long header"}, [][]string{{"wide cell", "x"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator not aligned with header:\n%s", out)
	}
}

func TestTableISmallScale(t *testing.T) {
	rows, err := TableI(TableIOptions{
		Scale:     0.01,
		Patterns:  1 << 12,
		WrongKeys: 3,
		Circuits:  []string{"b20", "s38417"},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.HDPercent <= 5 {
			t.Errorf("%s: HD %.2f%% too low — weighted locking should corrupt strongly", r.Circuit, r.HDPercent)
		}
		if r.HDPercent > 60 {
			t.Errorf("%s: HD %.2f%% above the theoretical regime", r.Circuit, r.HDPercent)
		}
		if r.AreaOvhd <= 0 {
			t.Errorf("%s: area overhead %.2f%% should be positive", r.Circuit, r.AreaOvhd)
		}
		if r.DelayOvhd < 0 {
			t.Errorf("%s: negative delay overhead", r.Circuit)
		}
	}
	text := FormatTableI(rows)
	if !strings.Contains(text, "b20") || !strings.Contains(text, "HD (%)") {
		t.Fatalf("formatted table missing content:\n%s", text)
	}
}

func TestTableIOverheadShrinksWithCircuitSize(t *testing.T) {
	// The paper's overhead-reduction trend: bigger circuits, smaller
	// relative overhead (key size roughly constant).
	rows, err := TableI(TableIOptions{
		Scale:     0.02,
		Patterns:  1 << 10,
		WrongKeys: 2,
		Circuits:  []string{"b20", "b18"},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var small, big TableIRow
	for _, r := range rows {
		switch r.Circuit {
		case "b20":
			small = r
		case "b18":
			big = r
		}
	}
	if big.Gates <= small.Gates {
		t.Fatalf("b18 should be bigger than b20 (%d vs %d gates)", big.Gates, small.Gates)
	}
	if big.AreaOvhd >= small.AreaOvhd {
		t.Fatalf("area overhead should shrink with size: b20=%.2f%% b18=%.2f%%", small.AreaOvhd, big.AreaOvhd)
	}
}

func TestTableIISmallScale(t *testing.T) {
	rows, err := TableII(TableIIOptions{
		Scale:        0.008,
		RandomBlocks: 16,
		Circuits:     []string{"b20"},
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Synthetic random logic carries more redundant faults than the real
	// benchmark suite, so the absolute coverages sit a little below the
	// paper's 95-99%; the floor guards against gross regressions.
	if r.OrigFC < 80 || r.ProtFC < 80 {
		t.Fatalf("coverages implausibly low: orig %.2f%% prot %.2f%%", r.OrigFC, r.ProtFC)
	}
	// The paper's observation: the protected circuit's coverage does not
	// degrade (key inputs act as controllable test points).
	if r.ProtFC < r.OrigFC-0.5 {
		t.Fatalf("protected coverage %.2f%% fell below original %.2f%%", r.ProtFC, r.OrigFC)
	}
	if r.ProtFaults <= r.OrigFaults {
		t.Fatalf("protected circuit should carry more faults (%d vs %d)", r.ProtFaults, r.OrigFaults)
	}
	text := FormatTableII(rows)
	if !strings.Contains(text, "b20") {
		t.Fatalf("formatted table missing circuit:\n%s", text)
	}
}

func TestAttackStudyShape(t *testing.T) {
	rows, err := AttackStudy(AttackStudyOptions{
		Scale:   0.004,
		KeyBits: 10,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (4 attacks × 2 oracle modes)", len(rows))
	}
	for _, r := range rows {
		switch r.Protection {
		case "none":
			if !r.KeyCorrect {
				t.Errorf("%s against the unprotected oracle failed (disagreement %.3f, note %q)", r.Attack, r.Disagreement, r.Note)
			}
			// The audit column must predict the outcome: an unprotected
			// oracle is an error-severity finding.
			if !strings.HasPrefix(r.Audit, "1E") {
				t.Errorf("%s/none: audit column %q, want an error-severity verdict", r.Attack, r.Audit)
			}
		case "orap-basic":
			if r.KeyCorrect {
				t.Errorf("%s against the OraP oracle recovered a correct key — the protection is broken", r.Attack)
			}
			if r.Note == "" && r.Disagreement == 0 {
				t.Errorf("%s against OraP reports zero disagreement", r.Attack)
			}
			if !strings.HasPrefix(r.Audit, "0E") || !strings.Contains(r.Audit, "b") {
				t.Errorf("%s/orap-basic: audit column %q, want clean with an entropy figure", r.Attack, r.Audit)
			}
		}
	}
	// Oracle-channel telemetry: every cell ran through a session over the
	// scan oracle, so the channel columns must be populated and coherent.
	for _, r := range rows {
		if r.Unique <= 0 {
			t.Errorf("%s/%s: no unique patterns recorded", r.Attack, r.Protection)
		}
		if r.Queries > 0 && r.Unique > r.Queries {
			t.Errorf("%s/%s: unique %d > queries %d", r.Attack, r.Protection, r.Unique, r.Queries)
		}
		if r.CacheHitPct < 0 || r.CacheHitPct > 100 {
			t.Errorf("%s/%s: cache hit %.1f%% out of range", r.Attack, r.Protection, r.CacheHitPct)
		}
		if r.ScanCycles <= 0 {
			t.Errorf("%s/%s: no scan cycles accounted", r.Attack, r.Protection)
		}
		// The dataflow column is per locked netlist: weighted locking
		// taints outputs through its control cones but must never leave a
		// key bit linearly separable, so the leak count is pinned to 0.
		if !strings.Contains(r.Taint, "PO") || !strings.HasSuffix(r.Taint, " 0L") {
			t.Errorf("%s/%s: taint column %q, want tainted-PO figure with zero key leaks", r.Attack, r.Protection, r.Taint)
		}
		// The exact column refines the taint bound symbolically: at this
		// scale every cone fits the BDD budget, so the column must carry
		// a model-counted rate and a distinguishing-input tally, with no
		// budget fallbacks.
		if !strings.Contains(r.Exact, "r ") || !strings.Contains(r.Exact, "d") {
			t.Errorf("%s/%s: exact column %q, want rate and distinguishing-input figures", r.Attack, r.Protection, r.Exact)
		}
		if strings.Contains(r.Exact, "fb") || strings.Contains(r.Exact, "budget") {
			t.Errorf("%s/%s: exact column %q reports budget fallbacks at study scale", r.Attack, r.Protection, r.Exact)
		}
	}
	text := FormatAttackStudy(rows)
	for _, col := range []string{"Taint", "Exact", "Audit", "Unique", "Hit%", "Scan cycles"} {
		if !strings.Contains(text, col) {
			t.Fatalf("formatted study missing the %s column:\n%s", col, text)
		}
	}
}

func TestTrojanStudyShape(t *testing.T) {
	rows, err := TrojanStudy(TrojanStudyOptions{KeyBits: 128, Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 scenarios", len(rows))
	}
	get := func(s string) TrojanRow {
		for _, r := range rows {
			if r.Scenario == s {
				return r
			}
		}
		t.Fatalf("scenario %s missing", s)
		return TrojanRow{}
	}
	a, b, c, d, e := get("a"), get("b"), get("c"), get("d"), get("e")
	// Payload ordering enforced by the countermeasures.
	if !(e.PayloadGE < a.PayloadGE && a.PayloadGE < b.PayloadGE && b.PayloadGE < c.PayloadGE && c.PayloadGE < d.PayloadGE) {
		t.Fatalf("payload ordering violated: e=%.0f a=%.0f b=%.0f c=%.0f d=%.0f",
			e.PayloadGE, a.PayloadGE, b.PayloadGE, c.PayloadGE, d.PayloadGE)
	}
	// Scenario (e) is the separator between basic and modified.
	if !e.BasicWorks || e.ModifiedWorks {
		t.Fatalf("scenario (e): basic=%v modified=%v, want true/false", e.BasicWorks, e.ModifiedWorks)
	}
	// Reset suppression and shadow registers beat both variants
	// (behaviourally) — their defense is side-channel detection.
	if !a.BasicWorks || !c.BasicWorks {
		t.Fatal("scenarios (a)/(c) should succeed behaviourally")
	}
}

func TestSATScalingShape(t *testing.T) {
	rows, err := SATScaling(SATScalingOptions{KeyWidths: []int{4, 6}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// SARLock iterations must grow roughly 2^n; random XOR stays small.
	iters := map[string]map[int]int{}
	for _, r := range rows {
		if iters[r.Defense] == nil {
			iters[r.Defense] = map[int]int{}
		}
		iters[r.Defense][r.KeyBits] = r.Iterations
	}
	if iters["sarlock"][6] <= iters["sarlock"][4] {
		t.Fatalf("SARLock iterations did not grow with key width: %v", iters["sarlock"])
	}
	if iters["random-xor"][6] >= iters["sarlock"][6] {
		t.Fatalf("random XOR (%d) should need fewer iterations than SARLock (%d)",
			iters["random-xor"][6], iters["sarlock"][6])
	}
}

func TestXorTreeSweepShape(t *testing.T) {
	rows, err := XorTreeSweep(64)
	if err != nil {
		t.Fatal(err)
	}
	// Within a fixed schedule, denser taps mean more mixing.
	cost := map[[3]int]int{}
	for _, r := range rows {
		cost[[3]int{r.TapSpacing, r.Seeds, r.FreeRun}] = r.XorGates
	}
	if !(cost[[3]int{4, 8, 8}] > cost[[3]int{16, 8, 8}]) {
		t.Fatalf("denser taps should cost more XOR gates: %v vs %v",
			cost[[3]int{4, 8, 8}], cost[[3]int{16, 8, 8}])
	}
	if !(cost[[3]int{0, 8, 8}] < cost[[3]int{8, 8, 8}]) {
		t.Fatalf("shift register should cost less than LFSR: %v vs %v",
			cost[[3]int{0, 8, 8}], cost[[3]int{8, 8, 8}])
	}
}

func TestCtrlWidthSweepShape(t *testing.T) {
	rows, err := CtrlWidthSweep(7, []int{1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HDPercent <= 0 {
			t.Fatalf("ctrl width %d: zero HD", r.ControlWidth)
		}
	}
}

func TestKeySizeSweepSaturates(t *testing.T) {
	rows, err := KeySizeSweep(9, []int{6, 24, 96}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// HD grows with key size but saturates below ~55%.
	if rows[0].HDPercent >= rows[2].HDPercent {
		t.Fatalf("HD did not grow with key size: %.2f -> %.2f", rows[0].HDPercent, rows[2].HDPercent)
	}
	for _, r := range rows {
		if r.HDPercent > 58 {
			t.Fatalf("HD %.2f%% above the saturation regime", r.HDPercent)
		}
	}
	// The paper's stopping rule: the jump from 24 to 96 bits is much
	// smaller than the jump from 6 to 24 (diminishing returns).
	gain1 := rows[1].HDPercent - rows[0].HDPercent
	gain2 := rows[2].HDPercent - rows[1].HDPercent
	if gain2 > gain1 {
		t.Fatalf("no saturation: gains %.2f then %.2f", gain1, gain2)
	}
}

func TestOtherAttacksShape(t *testing.T) {
	rows, err := OtherAttacks(11)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]OtherAttackRow{}
	for _, r := range rows {
		byKey[r.Attack+"/"+r.Defense+"/"+r.Oracle] = r
	}
	// Bypass defeats SARLock through an unprotected oracle…
	if r := byKey["bypass/sarlock/none"]; !r.Applies || !r.DesignRecovered {
		t.Fatalf("bypass vs SARLock (unprotected) should recover the design: %+v", r)
	}
	// …but the OraP oracle's locked responses poison the patch table.
	if r := byKey["bypass/sarlock/orap-basic"]; r.DesignRecovered {
		t.Fatalf("bypass through OraP recovered the design: %+v", r)
	}
	// Bypass does not apply to high-corruption locking.
	if r := byKey["bypass/weighted/none"]; r.Applies {
		t.Fatalf("bypass should exhaust its budget vs weighted locking: %+v", r)
	}
	// SPS + removal defeats Anti-SAT, oracle-less.
	if r := byKey["sps+removal/antisat/(oracle-less)"]; !r.Applies || !r.DesignRecovered {
		t.Fatalf("SPS should defeat Anti-SAT: %+v", r)
	}
	// SPS finds nothing in OraP + weighted locking.
	if r := byKey["sps+removal/weighted/(oracle-less)"]; r.Applies {
		t.Fatalf("SPS should not apply to weighted locking: %+v", r)
	}
}
