package main

import "fmt"

// plan is a workload's fixed op list and the designs its set-up builds,
// both derived from the seed.
type plan struct {
	specs []spec
	ops   []op
}

// op is one closed-loop request: a family name (the op's root span) and
// the function it runs on one design of the set-up.
type op struct {
	family string
	design int
	run    opFunc
}

func (p *plan) add(s spec) int {
	p.specs = append(p.specs, s)
	return len(p.specs) - 1
}

// workload sizes its plan in units; a unit takes about unitSeconds on
// the reference machine (2-core x86-64), so a run of s seconds gets
// round(s/unitSeconds) units. Sizing from the requested seconds instead
// of a clock keeps the op list fixed for a seed.
type workload struct {
	unitSeconds float64
	plan        func(seed uint64, units int) plan
}

var workloads = map[string]workload{
	"attack": {unitSeconds: 1.9, plan: attackPlan},
	"audit":  {unitSeconds: 1.7, plan: auditPlan},
	"tables": {unitSeconds: 0.9, plan: tablesPlan},
}

// attackPlan is the Section II-A study as `orapattack -oracle scan` runs
// it. Each unit is one b20-profile instance: the four attacks through the
// unprotected and the OraP-basic chip on a 16-bit weighted lock (few DIPs,
// hard solves), then the SAT attack alone through the unprotected chip on
// 8-bit SARLock, Anti-SAT, TTLock and random-XOR locks (11 to 256 DIPs,
// easy incremental solves). SARLock, the slowest op by far, runs on a
// second instance too: with 2 of 13 ops, p90 falls inside the SARLock
// latencies rather than on the edge between them and the rest.
func attackPlan(seed uint64, units int) plan {
	var p plan
	for u := 0; u < units; u++ {
		s := deriveSeed(seed, fmt.Sprintf("attack/%d", u))
		w := p.add(spec{profile: "b20", scale: 0.012, seed: s, scheme: "weighted", keyBits: 16})
		for _, prot := range []string{unprotected, orapBasic} {
			for _, a := range attacks {
				p.ops = append(p.ops, op{"attack." + a + "." + prot, w, attackOp(a, prot)})
			}
		}
		second := deriveSeed(seed, fmt.Sprintf("attack/%d/sarlock", u))
		for _, d := range []spec{
			{scheme: "sarlock", seed: s}, {scheme: "sarlock", seed: second},
			{scheme: "antisat", seed: s}, {scheme: "ttlock", seed: s}, {scheme: "randomxor", seed: s},
		} {
			i := p.add(spec{profile: "b20", scale: 0.012, seed: d.seed, scheme: d.scheme, keyBits: 8})
			p.ops = append(p.ops, op{"attack.sat." + d.scheme, i, attackOp("sat", unprotected)})
		}
	}
	return p
}

// Audit sizes: the structural family audits one instance of each of the
// eight Table I profiles at auditSuiteScale in every unit; the exact
// family audits auditExactSeeds fresh b20 instances per unit at
// auditExactScale under all five schemes. The suite is polynomial and
// steady from instance to instance, while the exact cost swings with each
// instance's key cones, so the exact family gets many small instances;
// the counts balance the two families at about half the op time each.
const (
	auditSuiteScale = 0.1
	auditExactScale = 0.004
	auditExactSeeds = 12
)

// auditPlan is `orapbench -audit` (structural audit of the Table I lock,
// oracle-path audit of its OraP-basic chip) beside `orapaudit -exact`
// (ROBDD audit and key-equivalence proof) on small designs.
func auditPlan(seed uint64, units int) plan {
	var p plan
	var suite []int
	for _, prof := range suiteProfiles {
		s := deriveSeed(seed, "audit/"+prof)
		suite = append(suite, p.add(spec{profile: prof, scale: auditSuiteScale, seed: s, scheme: "tablei", protect: true}))
	}
	for u := 0; u < units; u++ {
		for _, d := range suite {
			p.ops = append(p.ops, op{"audit.structural", d, structuralAuditOp})
		}
		for i := 0; i < auditExactSeeds; i++ {
			s := deriveSeed(seed, fmt.Sprintf("audit/%d/exact/%d", u, i))
			for _, scheme := range []string{"weighted", "sarlock", "antisat", "ttlock", "randomxor"} {
				d := p.add(spec{profile: "b20", scale: auditExactScale, seed: s, scheme: scheme, keyBits: 12})
				p.ops = append(p.ops, op{"audit.exact." + scheme, d, exactAuditOp})
			}
		}
	}
	return p
}

// suiteProfiles is the Table I suite; the tables workload leaves out b18
// and b19, whose Table II entries take seconds at every scale where the
// other profiles take milliseconds.
var (
	suiteProfiles  = []string{"s38417", "s38584", "b17", "b18", "b19", "b20", "b21", "b22"}
	tablesProfiles = []string{"s38417", "s38584", "b17", "b20", "b21", "b22"}
)

// tableScale sets each profile's scale for the tables workload so that
// no op dominates: Table II's ATPG cost grows much faster than the gate
// count and differs widely between profiles.
var tableScale = map[string]float64{
	"s38417": 0.1, "s38584": 0.06, "b17": 0.007, "b20": 0.005, "b21": 0.007, "b22": 0.004,
}

// tablesPlan is `orapbench -table 1` and `-table 2`: per unit, one Table I
// row and the two Table II entries (original, protected) of every
// profile.
func tablesPlan(seed uint64, units int) plan {
	var p plan
	for u := 0; u < units; u++ {
		for _, prof := range tablesProfiles {
			s := deriveSeed(seed, fmt.Sprintf("tables/%d/%s", u, prof))
			d := p.add(spec{profile: prof, scale: tableScale[prof], seed: s, scheme: "tablei"})
			p.ops = append(p.ops,
				op{"tables.tableI", d, tableIOp},
				op{"tables.tableII.orig", d, tableIIOp(false)},
				op{"tables.tableII.prot", d, tableIIOp(true)})
		}
	}
	return p
}
