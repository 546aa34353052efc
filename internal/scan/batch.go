package scan

import (
	"fmt"

	"orap/internal/sim"
)

// ScanBatch runs up to 64 scan-protocol queries through the chip in one
// call. in is bit-sliced over the core inputs (pins first, then
// flip-flop-driven inputs): bit p of in[i] is pattern p's value of core
// input i. The response uses the same layout over the core outputs (pin
// outputs, then the captured flip-flop values); lanes at and above n are
// zero.
//
// Each pattern replays the exact scalar protocol — raise scan enable
// (rising edge: OraP pulse generators clear the key register), shift the
// pattern in, drop scan enable for one capture clock, raise scan enable
// again to shift the response out, drop it. The scan-enable edges are
// driven through SetScanEnable per pattern, so the self-clear semantics,
// Trojan interactions and unlocked bookkeeping are identical to n scalar
// queries; the key register seen by each capture is snapshotted per lane
// before the cores evaluate word-parallel in a single pass. The chip
// ends in the same state as after the n-th scalar query: scan enable
// low, flip-flops holding the last pattern's captured response, and
// n·(2·chain-length+1) test-clock cycles accounted.
func (ch *Chip) ScanBatch(in []uint64, n int) ([]uint64, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("scan: batch size %d out of range [1,64]", n)
	}
	if len(in) != ch.cfg.Core.NumInputs() {
		return nil, fmt.Errorf("scan: batch width %d != core inputs %d", len(in), ch.cfg.Core.NumInputs())
	}
	if ch.batch == nil {
		p, err := sim.ForProgram(ch.core, 1)
		if err != nil {
			return nil, err
		}
		ch.batch = p
	}
	prog := ch.core

	// Replay the scan-enable protocol per pattern and snapshot the key
	// register each capture clock sees. The flip-flop scan-in fully
	// overwrites the state, so patterns cannot couple through ch.ff; the
	// key register evolves only on scan-enable edges, replayed here in
	// order.
	keyWords := make([]uint64, ch.keyReg.Len())
	for p := 0; p < n; p++ {
		ch.SetScanEnable(true) // rising edge: OraP clears the key register
		bit := uint64(1) << uint(p)
		for i := 0; i < ch.keyReg.Len(); i++ {
			if ch.keyReg.Bit(i) {
				keyWords[i] |= bit
			}
		}
		ch.SetScanEnable(false) // capture happens here (deferred below)
		ch.SetScanEnable(true)  // second rising edge: shift the response out
		ch.SetScanEnable(false)
	}

	// All captures evaluate in one word-parallel pass over the shared
	// compiled program, with the per-lane key snapshots applied.
	for i, id := range prog.PIs {
		ch.batch.SetInput(int(id), in[i:i+1])
	}
	for i, id := range prog.Keys {
		ch.batch.SetInput(int(id), keyWords[i:i+1])
	}
	ch.batch.Run()

	mask := ^uint64(0)
	if n < 64 {
		mask = 1<<uint(n) - 1
	}
	out := make([]uint64, prog.NumOutputs())
	for j, id := range prog.POs {
		out[j] = ch.batch.Value(int(id))[0] & mask
	}

	// The chip state after the batch matches the n-th scalar query: the
	// flip-flops hold the last pattern's captured next-state.
	last := uint(n - 1)
	for k := range ch.ff {
		ch.ff[k] = out[ch.cfg.RealPOs+k]>>last&1 == 1
	}
	ch.cycles += int64(n) * ch.CyclesPerQuery()
	return out, nil
}
