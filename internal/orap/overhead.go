package orap

import "orap/internal/lfsr"

// Overhead itemizes the hardware the OraP register adds on top of the
// combinational locking layer, using the paper's accounting: pulse
// generators (one NAND2 plus a three-inverter chain per key-register
// cell), one XOR2 per reseeding point, and one XOR2 per characteristic-
// polynomial tap. The LFSR flip-flops themselves are not charged, "since
// the use of key registers is common to all logic locking techniques".
type Overhead struct {
	// PulseGenNANDs is one NAND2 per key-register cell.
	PulseGenNANDs int
	// PulseGenInverters is the inverter-chain cost (three per cell).
	PulseGenInverters int
	// ReseedXORs is one XOR2 per reseeding point.
	ReseedXORs int
	// TapXORs is one XOR2 per polynomial tap.
	TapXORs int
}

// RegisterOverhead computes the OraP register overhead for a wiring.
func RegisterOverhead(cfg lfsr.Config) Overhead {
	return Overhead{
		PulseGenNANDs:     cfg.N,
		PulseGenInverters: 3 * cfg.N,
		ReseedXORs:        len(cfg.Inject),
		TapXORs:           len(cfg.Taps),
	}
}

// Gates returns the added gate count excluding inverters, the metric of
// the paper's Table I area column.
func (o Overhead) Gates() int {
	return o.PulseGenNANDs + o.ReseedXORs + o.TapXORs
}
