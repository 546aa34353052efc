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

// trojanKeyBits is the key-register width the payload costs are
// computed for (the paper's running example), and trojanScale shrinks
// the carrier circuit.
const (
	trojanKeyBits = 128
	trojanScale   = 0.02
)

// TrojanStudy reproduces the Section III analysis executably: for each
// attack scenario (a)–(e) it computes the Trojan payload in NAND2 gate
// equivalents under the paper's countermeasures, and where the scenario is
// behavioural it simulates the attack against chips built with the basic
// and the modified OraP scheme. The seed drives every random choice.
func TrojanStudy(seed uint64) ([]TrojanRow, error) {
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		return nil, err
	}
	scaled := prof.Scale(trojanScale)
	circuit, err := benchgen.Generate(scaled, seed)
	if err != nil {
		return nil, err
	}
	// The simulated chips use a moderate key width: at most 24 bits, and
	// at most one key bit per eight gates of the small carrier. The
	// payload table below uses the full trojanKeyBits width.
	simKeyBits := min(24, circuit.GateCount()/8)
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits:      simKeyBits,
		ControlWidth: 3,
		Rand:         rng.NewNamed(seed, "trojan/lock"),
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
		Rand:    rng.NewNamed(seed, "trojan/basic"),
	})
	if err != nil {
		return nil, err
	}
	modCfg, err := orap.Protect(l.Circuit, l.Key, scaled.Pins, scaled.PinOuts, scan.OraPModified, orap.Options{
		Rand: rng.NewNamed(seed, "trojan/mod"),
	})
	if err != nil {
		return nil, err
	}

	// Payload costs use the paper-scale key width and the basic scheme's
	// synthesized schedule.
	costCfg := lfsr.Config{
		N:      trojanKeyBits,
		Taps:   lfsr.StandardTaps(trojanKeyBits, 8),
		Inject: lfsr.AllInject(trojanKeyBits),
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
