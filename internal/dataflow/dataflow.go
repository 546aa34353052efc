// Package dataflow holds the static analyses over the compiled circuit
// IR that the rules in internal/check and internal/audit read. Each
// analysis is one function of the program: one sweep over ir.Program's
// topological order (reversed for Observability) that calls the
// analysis's own per-node transfer. On a combinational DAG every node's
// inputs (fanins going forward, fanouts going backward) come earlier in
// that sweep, so the single sweep is the fixpoint, with no iteration
// and no join.
//
// The analyses are the pair/key-difference analysis (Pair, bit-sliced
// over 64 key bits per call), per-net input-taint sets (KeyTaint,
// InputTaint) and the two SCOAP-style testability scores
// (Controllability, Observability). Pair with no tracked key is the
// ternary constant lattice {Unknown, 0, 1}, which internal/check's
// const-out rule reads. Each analysis's values form a lattice — the
// pair planes under bitwise AND, taint sets under union, SCOAP scores
// under max — and every transfer is monotone in its order, the
// property that makes the one sweep exact; monotone_test.go states
// each join and checks that property.
// Plain reachability is not an analysis here: it is ir.Program's
// TransitiveFanin and TransitiveFanout, and the audit's control cone is
// ir.Program.KeyOnly, the key-only partition the Hamming-distance
// kernel shares.
package dataflow
