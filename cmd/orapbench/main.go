// Command orapbench regenerates the paper's evaluation tables and this
// repository's additional studies.
//
// Usage:
//
//	orapbench -table 1        # Table I: HD, area and delay overhead
//	orapbench -table 2        # Table II: stuck-at coverage, red+abrt faults
//	orapbench -table attacks  # Section II-A: attacks vs oracle protection
//	orapbench -table trojan   # Section III: Trojan payloads and outcomes
//	orapbench -table scaling  # ablation: SAT iterations vs defense/key width
//	orapbench -table xortree  # ablation: attack-(d) XOR-tree design space
//	orapbench -table ctrl     # ablation: HD vs control-gate width
//	orapbench -table keysize  # ablation: HD saturation vs key size
//	orapbench -table others   # bypass / SPS+removal applicability
//	orapbench -table all
//	orapbench -check          # structural preflight of the generated suite
//	orapbench -audit          # preflight + security audit of the locked suite
//
// The preflight modes exit 0 when clean (or info-only), 1 on
// error-severity findings, 2 on internal failure and 3 on warnings only
// — the same convention as cmd/orapaudit.
//
// The -scale flag shrinks the generated benchmark circuits; -scale 1
// reproduces the paper's circuit sizes (Table I/II then take minutes to
// hours of CPU depending on the circuit).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"orap/internal/exp"
)

// tables lists the valid -table names.
var tables = []string{"1", "2", "attacks", "trojan", "scaling", "xortree", "ctrl", "keysize", "others", "all"}

func main() {
	var (
		table    = flag.String("table", "all", "which table to regenerate: "+strings.Join(tables, ", "))
		scale    = flag.Float64("scale", 0.05, "benchmark circuit scale factor (1 = paper scale)")
		seed     = flag.Uint64("seed", 2020, "experiment seed")
		patterns = flag.Int("patterns", 0, "HD pattern count (0 = default, a few hundred thousand)")
		circuits = flag.String("circuits", "", "comma-separated benchmark subset (default: all eight)")
		workers  = flag.Int("workers", 0, "worker pool size for the simulation hot paths (0 = all cores, 1 = serial); tables are identical at any setting")
		doCheck  = flag.Bool("check", false, "structurally check the generated benchmark suite at this -scale/-seed and exit")
		doAudit  = flag.Bool("audit", false, "like -check, plus the security audit of the Table I lock + OraP pairing")
	)
	flag.Parse()
	if !slices.Contains(tables, *table) {
		fmt.Fprintf(os.Stderr, "orapbench: unknown table %q; valid tables: %s\n", *table, strings.Join(tables, ", "))
		os.Exit(2)
	}
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "orapbench: -scale must be in (0, 1], got %v\n", *scale)
		os.Exit(2)
	}
	for _, f := range []struct {
		name  string
		value int
		zero  string
	}{{"patterns", *patterns, "the default count"}, {"workers", *workers, "all cores"}} {
		if f.value < 0 {
			fmt.Fprintf(os.Stderr, "orapbench: -%s must be 0 (%s) or positive, got %d\n", f.name, f.zero, f.value)
			os.Exit(2)
		}
	}
	scaleExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scale" {
			scaleExplicit = true
		}
	})
	// Table II runs full ATPG; at the shared default scale it dominates a
	// "-table all" run, so it gets a lighter default unless -scale was
	// passed explicitly.
	atpgScale := *scale
	if !scaleExplicit && atpgScale > 0.02 {
		atpgScale = 0.02
	}

	var subset []string
	if *circuits != "" {
		subset = strings.Split(*circuits, ",")
	}

	if *doCheck || *doAudit {
		os.Exit(preflight(subset, *scale, *seed, *doAudit, os.Stdout, os.Stderr))
	}

	run := func(name string, f func() error) {
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "orapbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(t string) bool { return *table == "all" || *table == t }

	if want("1") {
		run("Table I — HD, area and delay overhead (OraP + weighted logic locking)", func() error {
			rows, err := exp.TableI(exp.TableIOptions{
				Scale:    *scale,
				Patterns: *patterns,
				Circuits: subset,
				Workers:  *workers,
				Seed:     *seed,
			})
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatTableI(rows))
			return nil
		})
	}
	if want("2") {
		run("Table II — stuck-at fault coverage, original vs protected", func() error {
			rows, err := exp.TableII(exp.TableIIOptions{
				Scale:    atpgScale,
				Circuits: subset,
				Workers:  *workers,
				Seed:     *seed,
			})
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatTableII(rows))
			return nil
		})
	}
	if want("attacks") {
		run("Section II-A — oracle-guided attacks vs oracle protection", func() error {
			rows, err := exp.AttackStudy(exp.AttackStudyOptions{Workers: *workers, Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatAttackStudy(rows))
			return nil
		})
	}
	if want("trojan") {
		run("Section III — Trojan scenarios: payloads and simulated outcomes", func() error {
			rows, err := exp.TrojanStudy(exp.TrojanStudyOptions{Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatTrojanStudy(rows))
			return nil
		})
	}
	if want("scaling") {
		run("Ablation — SAT-attack iterations vs defense and key width", func() error {
			rows, err := exp.SATScaling(exp.SATScalingOptions{Workers: *workers, Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatSATScaling(rows))
			return nil
		})
	}
	if want("xortree") {
		run("Ablation — attack-(d) XOR-tree cost vs LFSR design space", func() error {
			rows, err := exp.XorTreeSweep(128)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatXorTreeSweep(rows))
			return nil
		})
	}
	if want("others") {
		run("Section II-A — bypass / SPS+removal applicability", func() error {
			rows, err := exp.OtherAttacks(*seed)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatOtherAttacks(rows))
			return nil
		})
	}
	if want("keysize") {
		run("Ablation — HD saturation vs key size (the paper's stopping rule)", func() error {
			rows, err := exp.KeySizeSweep(*seed, nil, *workers)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatKeySizeSweep(rows))
			return nil
		})
	}
	if want("ctrl") {
		run("Ablation — HD vs weighted-locking control-gate width", func() error {
			rows, err := exp.CtrlWidthSweep(*seed, nil, *workers)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatCtrlWidthSweep(rows))
			return nil
		})
	}
}
