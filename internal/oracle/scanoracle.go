package oracle

import "orap/internal/scan"

// chipPort is the slice of the scan.Chip surface the oracle drives. The
// seam exists so tests can inject batch failures and assert the oracle
// restores the chip to a consistent state (scan enable low) on every
// error path.
type chipPort interface {
	Config() scan.Config
	SetScanEnable(v bool)
	ScanBatch(in []uint64, n int) ([]uint64, error)
	CyclesPerQuery() int64
}

var _ chipPort = (*scan.Chip)(nil)

// Scan is the realistic oracle: every query goes through the chip's scan
// infrastructure exactly as the paper describes — raise scan enable,
// shift the pattern into the flip-flops, drop scan enable for one capture
// clock, raise scan enable again and shift the response out.
//
// On a conventional chip (scan.None) the key register still holds the
// correct key during capture, so responses are correct and oracle-guided
// attacks work. On an OraP chip the rising scan-enable edge cleared the
// key register before the first shift, so every response belongs to the
// locked circuit.
//
// A batch carries up to 64 patterns through scan.Chip.ScanBatch, which
// replays the per-pattern scan-enable protocol (self-clear included) and
// evaluates all captures in one word-parallel pass. Scan also implements
// ChannelCost with the paper's cost model, 2·chain-length+1 test clocks
// per query.
type Scan struct {
	chip    chipPort
	queries int
}

// NewScan wraps an activated chip. The chip should have been unlocked
// (activated) before it reached the attacker; for a protected chip the
// protection works regardless.
func NewScan(ch *scan.Chip) *Scan {
	return &Scan{chip: ch}
}

// NumInputs implements Oracle: queries cover all core inputs, pins first
// then flip-flop-driven inputs.
func (o *Scan) NumInputs() int { return o.chip.Config().Core.NumInputs() }

// NumOutputs implements Oracle: responses cover all core outputs, pin
// outputs first then the captured flip-flop values scanned back out.
func (o *Scan) NumOutputs() int { return o.chip.Config().Core.NumOutputs() }

// QueryWords implements Oracle via the chip's batched scan protocol. On
// a protocol error the oracle drops scan enable before returning, so a
// failed batch leaves the chip ready for the next one instead of parked
// in scan mode.
func (o *Scan) QueryWords(in []uint64, n int) ([]uint64, error) {
	if err := checkBatch(o, in, n); err != nil {
		return nil, err
	}
	out, err := o.chip.ScanBatch(in, n)
	if err != nil {
		o.chip.SetScanEnable(false)
		return nil, err
	}
	o.queries += n
	return out, nil
}

// QueryCycles implements ChannelCost with the chip's own per-query cost.
func (o *Scan) QueryCycles() int64 { return o.chip.CyclesPerQuery() }

// Queries implements Oracle.
func (o *Scan) Queries() int { return o.queries }
