package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_tables.golden from the current code")

// renderPaperTables renders every paper table the reproduction ships —
// Table I, Table II, the Section II-A attack study, the Section III
// Trojan study and the remaining-attacks study — through the same
// Format* functions the orapbench CLI prints with.
func renderPaperTables(t *testing.T) string {
	t.Helper()
	const seed = 2020
	circuits := []string{"s38417", "b20"}
	var b strings.Builder

	t1, err := TableI(TableIOptions{Scale: 0.01, Circuits: circuits, Seed: seed})
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	b.WriteString("Table I\n" + FormatTableI(t1) + "\n")

	t2, err := TableII(TableIIOptions{Scale: 0.01, Circuits: circuits, Seed: seed})
	if err != nil {
		t.Fatalf("TableII: %v", err)
	}
	b.WriteString("Table II\n" + FormatTableII(t2) + "\n")

	as, err := AttackStudy(AttackStudyOptions{Seed: seed})
	if err != nil {
		t.Fatalf("AttackStudy: %v", err)
	}
	b.WriteString("Attack study\n" + FormatAttackStudy(as) + "\n")

	ts, err := TrojanStudy(seed)
	if err != nil {
		t.Fatalf("TrojanStudy: %v", err)
	}
	b.WriteString("Trojan study\n" + FormatTrojanStudy(ts) + "\n")

	oa, err := OtherAttacks(seed)
	if err != nil {
		t.Fatalf("OtherAttacks: %v", err)
	}
	b.WriteString("Other attacks\n" + FormatOtherAttacks(oa))
	return b.String()
}

// TestPaperTablesGolden pins every paper table byte for byte, so a
// refactor that claims "same behaviour" is checked rather than diffed by
// hand. Regenerate with `go test ./internal/exp -run PaperTablesGolden
// -update` only for a change that is meant to move a table.
func TestPaperTablesGolden(t *testing.T) {
	got := renderPaperTables(t)
	path := filepath.Join("testdata", "paper_tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("paper tables differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
