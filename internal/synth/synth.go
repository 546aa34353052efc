// Package synth estimates post-resynthesis area and delay, reproducing
// the paper's Table I methodology: both the original and the protected
// circuit are normalized through the same optimization pipeline (ABC's
// strash → refactor → rewrite in the paper, the aig package's strash +
// local rules + balancing here), then area is compared as gate count and
// delay as logic levels.
package synth

import (
	"fmt"

	"orap/internal/aig"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// Metrics holds post-synthesis area and delay for one circuit.
type Metrics struct {
	// Area is the optimized AND-node count (the gate-count analogue,
	// inverters free as in the paper's "gates without inverters").
	Area int
	// Delay is the optimized logic depth in levels.
	Delay int
}

// optimize normalizes a circuit and returns its metrics: strash during
// AIG construction, then the explicit rewrite pass.
func optimize(c *netlist.Circuit) (Metrics, error) {
	prog, err := ir.Compile(c)
	if err != nil {
		return Metrics{}, err
	}
	g, err := aig.FromProgram(prog)
	if err != nil {
		return Metrics{}, err
	}
	g = g.Rewrite()
	area, delay := g.CountUsed()
	return Metrics{Area: area, Delay: delay}, nil
}

// Overhead compares a protected circuit against its original, adding
// extraGates (e.g. the OraP register's pulse generators and XORs) to the
// protected area, as the paper's accounting does.
type Overhead struct {
	Original  Metrics
	Protected Metrics
	// ExtraGates is the fixed gate-equivalent count added outside the
	// combinational netlist (OraP register hardware).
	ExtraGates int
}

// AreaPercent returns the area overhead in percent.
func (o Overhead) AreaPercent() float64 {
	if o.Original.Area == 0 {
		return 0
	}
	return 100 * float64(o.Protected.Area+o.ExtraGates-o.Original.Area) / float64(o.Original.Area)
}

// DelayPercent returns the delay overhead in percent (0 when the
// protected depth does not exceed the original — "no key gates have been
// inserted in a circuit's critical path(s)").
func (o Overhead) DelayPercent() float64 {
	if o.Original.Delay == 0 {
		return 0
	}
	d := 100 * float64(o.Protected.Delay-o.Original.Delay) / float64(o.Original.Delay)
	if d < 0 {
		return 0
	}
	return d
}

// Compare optimizes both circuits and assembles the overhead report.
func Compare(original, protected *netlist.Circuit, extraGates int) (Overhead, error) {
	om, err := optimize(original)
	if err != nil {
		return Overhead{}, fmt.Errorf("synth: original: %w", err)
	}
	pm, err := optimize(protected)
	if err != nil {
		return Overhead{}, fmt.Errorf("synth: protected: %w", err)
	}
	return Overhead{Original: om, Protected: pm, ExtraGates: extraGates}, nil
}
