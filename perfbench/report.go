package main

import (
	"fmt"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print reports the run's digest and where its op time went by family.
func (r runStats) print(label string) {
	wall := sum(r.lat)
	fmt.Printf("%s: digest %016x, failed %d/%d, stable %t, wall %.3fs\n",
		label, r.digest, r.failed, r.attempted, r.stable, wall.Seconds())
	names := make([]string, 0, len(r.family))
	for f := range r.family {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		fmt.Printf("  %-26s %5.1f%% of op time\n", f, 100*r.family[f].Seconds()/wall.Seconds())
	}
}

func endToEnd(r runStats, setup []float64) map[string]metric {
	n := float64(r.attempted)
	ms := make([]float64, len(r.lat))
	for i, l := range r.lat {
		ms[i] = l.Seconds() * 1e3
	}
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"ops_per_s":       {n / sum(r.lat).Seconds(), "op/s"},
		"op_p50_ms":       {quantile(ms, 0.5), "ms"},
		"op_p90_ms":       {quantile(ms, 0.9), "ms"},
		"cpu_ms_per_op":   {r.cpu.Seconds() * 1e3 / n, "ms"},
		"alloc_mb_per_op": {float64(r.alloc) / 1e6 / n, "MB"},
	}
}

// perLayer turns the traced run's spans and counters into the per-layer
// metrics: self time per op for op layers, per build for set-up layers,
// counts per op, and every ratio beside the count it divides by.
func perLayer(tr *tracer, timed, tx runStats, setups int) map[string]metric {
	opT, setupT, calls := tr.layerTimes()
	n := float64(tx.attempted)
	m := map[string]metric{}
	msOf := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	for _, l := range [][2]string{
		{"benchgen.generate_ms", "benchgen.generate"}, {"lock.ms", "lock"},
		{"bench.format_ms", "bench.format"}, {"bench.parse_ms", "bench.parse"}, {"check.ms", "check"},
	} {
		m[l[0]] = metric{msOf(setupT[l[1]]) / float64(setups), "ms"}
	}
	for _, l := range [][2]string{
		{"orap.protect_ms", "orap.protect"}, {"scan.unlock_ms", "scan.unlock"},
		{"attack.solve_ms", "attack.solve"}, {"attack.verify_ms", "attack.verify"},
		{"attack.disagree_ms", "attack.disagree"}, {"oracle.wait_ms", "oracle.wait"},
		{"ir.compile_ms", "ir.compile"}, {"audit.structural_ms", "audit.structural"},
		{"audit.exact_ms", "audit.exact"}, {"audit.keyeq_ms", "audit.keyeq"},
		{"audit.oracle_ms", "audit.oracle"}, {"metrics.hd_ms", "metrics.hd"},
		{"synth.compare_ms", "synth.compare"}, {"faultsim.random_ms", "faultsim.random"},
		{"atpg.ms", "atpg"},
	} {
		m[l[0]] = metric{msOf(opT[l[1]]) / n, "ms"}
	}
	c := tx.ctr
	for _, k := range []string{
		"scan.cycles", "attack.iterations", "attack.runs", "attack.keys.none", "attack.keys.orap",
		"oracle.queries", "oracle.unique", "oracle.chip_calls",
		"sat.conflicts", "sat.decisions", "sat.propagations",
		"audit.keybits", "audit.findings", "bdd.keybits", "bdd.nodes", "bdd.ite_lookups",
		"metrics.patterns", "aig.ands", "faultsim.faults", "atpg.targeted",
	} {
		m[k] = metric{c[k] / n, "count"}
	}
	m["oracle.calls"] = metric{float64(calls["oracle.wait"]) / n, "count"}
	m["bdd.peak_nodes"] = metric{c["bdd.peak_nodes"], "count"}
	ratio := func(name string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[name] = metric{v, "ratio"}
	}
	ratio("attack.converged_ratio", c["attack.converged"], c["attack.runs"])
	ratio("attack.key_ok_ratio.none", c["attack.key_ok.none"], c["attack.keys.none"])
	ratio("attack.key_ok_ratio.orap", c["attack.key_ok.orap"], c["attack.keys.orap"])
	ratio("oracle.hit_ratio", c["oracle.hits"], c["oracle.queries"])
	ratio("oracle.batch_ratio", c["oracle.batch_calls"], c["oracle.chip_calls"])
	ratio("bdd.ite_hit_ratio", c["bdd.ite_hits"], c["bdd.ite_lookups"])
	ratio("bdd.fallback_ratio", c["bdd.fallbacks"], c["bdd.keybits"])
	ratio("faultsim.detected_ratio", c["faultsim.detected"], c["faultsim.faults"])
	ratio("atpg.aborted_ratio", c["atpg.aborted"], c["atpg.targeted"])
	ratio("gc.cpu_frac", tx.gcCPU, tx.gcCPU+tx.userCPU)
	perMS := func(name string, count float64, d time.Duration) {
		v := 0.0
		if d > 0 {
			v = count / msOf(d)
		}
		m[name] = metric{v, "1/ms"}
	}
	perMS("sat.props_per_ms", c["sat.propagations"], opT["attack.solve"]+opT["atpg"])
	perMS("dataflow.keybits_per_ms", c["audit.keybits"], opT["audit.structural"])
	perMS("bdd.nodes_per_ms", c["bdd.nodes"], opT["audit.exact"])
	perMS("metrics.patterns_per_ms", c["metrics.patterns"], opT["metrics.hd"])
	m["gc.cycles"] = metric{tx.gcCycles / n, "count"}
	m["gc.max_rss_mb"] = metric{maxRSS() / 1e6, "MB"}
	m["trace.overhead_frac"] = metric{sum(tx.lat).Seconds()/sum(timed.lat).Seconds() - 1, "ratio"}
	spans := 0
	for _, s := range tr.spans {
		if s.op >= 0 {
			spans++
		}
	}
	m["trace.spans"] = metric{float64(spans) / n, "count"}
	m["trace.ops"] = metric{n, "count"}
	return m
}
