// Package exp contains the experiment drivers that regenerate every table
// of the paper's evaluation, plus the ablation studies listed in
// EXPERIMENTS.md. Each driver is deterministic in its options (seeded
// streams throughout) and returns structured rows; Format helpers render
// them in the paper's layout.
//
// Tables I and II take a Scale factor: 1.0 reproduces the paper's
// circuit sizes (minutes of CPU), smaller factors shrink the generated
// benchmark circuits proportionally for test and -short bench runs while
// preserving the qualitative shape of every result. The Trojan study
// runs on a fixed small carrier circuit, and the attack studies on fixed
// small circuits too, because SAT attacks on full-size ones do not
// terminate by design.
package exp

import (
	"fmt"
	"strings"
)

// formatTable renders rows of cells with aligned columns.
func formatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
