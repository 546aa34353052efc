package exp

import (
	"fmt"

	"orap/internal/benchgen"
	"orap/internal/lfsr"
	"orap/internal/lock"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
	"orap/internal/trojan"
)

// TrojanRow is one line of the Section III study: a Trojan scenario's
// payload cost and simulated outcome against the basic and modified OraP
// schemes.
type TrojanRow struct {
	Scenario    string
	Description string
	PayloadGE   float64
	// BasicWorks / ModifiedWorks report whether the simulated attack
	// obtains correct oracle material against each scheme variant
	// ("n/a" scenarios are marked false with a note in Description).
	BasicWorks    bool
	ModifiedWorks bool
}

// TrojanStudyOptions configures the Section III reproduction.
type TrojanStudyOptions struct {
	// KeyBits is the key-register width (paper's running example: 128).
	KeyBits int
	// Scale shrinks the carrier circuit.
	Scale float64
	// Seed drives every random choice.
	Seed uint64
}

// TrojanStudy reproduces the Section III analysis executably: for each
// attack scenario (a)–(e) it computes the Trojan payload in NAND2 gate
// equivalents under the paper's countermeasures, and where the scenario is
// behavioural it simulates the attack against chips built with the basic
// and the modified OraP scheme.
func TrojanStudy(opts TrojanStudyOptions) ([]TrojanRow, error) {
	if opts.KeyBits <= 0 {
		opts.KeyBits = 128
	}
	if opts.Scale <= 0 || opts.Scale > 1 {
		opts.Scale = 0.02
	}
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		return nil, err
	}
	scaled := prof.Scale(opts.Scale)
	circuit, err := benchgen.Generate(scaled, opts.Seed)
	if err != nil {
		return nil, err
	}
	// The simulated chips use a moderate key width: at most 24 bits, and
	// at most one key bit per eight gates of the small carrier. The
	// payload table below uses the full requested width.
	simKeyBits := opts.KeyBits
	if simKeyBits > 24 {
		simKeyBits = 24
	}
	if simKeyBits > circuit.GateCount()/8 {
		simKeyBits = circuit.GateCount() / 8
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits:      simKeyBits,
		ControlWidth: 3,
		Rand:         rng.NewNamed(opts.Seed, "trojan/lock"),
	})
	if err != nil {
		return nil, err
	}
	// The designer deliberately feeds several seeds with free-run cycles
	// between them — that is the lever that blows up the scenario-(d)
	// XOR trees.
	basicCfg, err := orap.Protect(l.Circuit, l.Key, scaled.Pins, scaled.PinOuts, scan.OraPBasic, orap.Options{
		Seeds:   4,
		FreeRun: 2,
		Rand:    rng.NewNamed(opts.Seed, "trojan/basic"),
	})
	if err != nil {
		return nil, err
	}
	modCfg, err := orap.Protect(l.Circuit, l.Key, scaled.Pins, scaled.PinOuts, scan.OraPModified, orap.Options{
		Rand: rng.NewNamed(opts.Seed, "trojan/mod"),
	})
	if err != nil {
		return nil, err
	}

	// Payload costs use the requested (paper-scale) key width and the
	// basic scheme's synthesized schedule.
	costCfg := lfsr.Config{
		N:      opts.KeyBits,
		Taps:   lfsr.StandardTaps(opts.KeyBits, 8),
		Inject: lfsr.AllInject(opts.KeyBits),
	}
	payloads, err := trojan.Payloads(costCfg, basicCfg.Schedule)
	if err != nil {
		return nil, err
	}
	byScenario := map[string]trojan.Payload{}
	for _, p := range payloads {
		byScenario[p.Scenario] = p
	}

	x := make([]bool, l.Circuit.NumInputs())
	for i := range x {
		x[i] = i%2 == 0
	}

	var rows []TrojanRow
	// (a)/(b): suppress the key-register reset. Works behaviourally on
	// both variants; the defense is payload-size detection.
	supBasic, err := trojan.SimulateSuppressReset(basicCfg, l.Key, x)
	if err != nil {
		return nil, err
	}
	supMod, err := trojan.SimulateSuppressReset(modCfg, l.Key, x)
	if err != nil {
		return nil, err
	}
	rows = append(rows, TrojanRow{
		Scenario: "a", Description: byScenario["a"].Description,
		PayloadGE:  byScenario["a"].GateEquivalents,
		BasicWorks: supBasic.CorrectResponse, ModifiedWorks: supMod.CorrectResponse,
	})
	rows = append(rows, TrojanRow{
		Scenario: "b", Description: byScenario["b"].Description,
		PayloadGE:  byScenario["b"].GateEquivalents,
		BasicWorks: supBasic.CorrectResponse, ModifiedWorks: supMod.CorrectResponse,
	})

	// (c): shadow register.
	shBasic, err := trojan.SimulateShadowKey(basicCfg, l.Key)
	if err != nil {
		return nil, err
	}
	shMod, err := trojan.SimulateShadowKey(modCfg, l.Key)
	if err != nil {
		return nil, err
	}
	rows = append(rows, TrojanRow{
		Scenario: "c", Description: byScenario["c"].Description,
		PayloadGE:  byScenario["c"].GateEquivalents,
		BasicWorks: shBasic.CorrectResponse, ModifiedWorks: shMod.CorrectResponse,
	})

	// (d): XOR-tree key reconstruction from latched seeds (basic scheme).
	xt, err := trojan.SimulateXorTree(basicCfg, l.Key)
	if err != nil {
		return nil, err
	}
	rows = append(rows, TrojanRow{
		Scenario: "d", Description: byScenario["d"].Description,
		PayloadGE:  byScenario["d"].GateEquivalents,
		BasicWorks: xt.CorrectResponse, ModifiedWorks: false,
	})

	// (e): freeze the flip-flops — the scenario that separates basic from
	// modified.
	frBasic, err := trojan.SimulateFreezeFFs(basicCfg, l.Key, x)
	if err != nil {
		return nil, err
	}
	frMod, err := trojan.SimulateFreezeFFs(modCfg, l.Key, x)
	if err != nil {
		return nil, err
	}
	rows = append(rows, TrojanRow{
		Scenario: "e", Description: byScenario["e"].Description,
		PayloadGE:  byScenario["e"].GateEquivalents,
		BasicWorks: frBasic.CorrectResponse, ModifiedWorks: frMod.CorrectResponse,
	})
	return rows, nil
}

// FormatTrojanStudy renders the Section III study.
func FormatTrojanStudy(rows []TrojanRow) string {
	header := []string{"Scenario", "Payload (GE)", "Beats basic", "Beats modified", "Payload description"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scenario,
			fmt.Sprintf("%.1f", r.PayloadGE),
			fmt.Sprint(r.BasicWorks),
			fmt.Sprint(r.ModifiedWorks),
			r.Description,
		})
	}
	return formatTable(header, cells)
}
