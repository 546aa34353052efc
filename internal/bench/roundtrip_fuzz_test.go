package bench_test

import (
	"testing"

	"orap/internal/bench"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// seedBench renders one of the shipped builder circuits to .bench text for
// use as a fuzz seed.
func seedBench(f *testing.F, c *netlist.Circuit) string {
	f.Helper()
	text, err := bench.FormatString(c)
	if err != nil {
		f.Fatalf("formatting seed circuit %q: %v", c.Name, err)
	}
	return text
}

// FuzzRoundTrip drives the reader/writer pair from the outside (the
// exported API only), seeded with every shipped benchmark circuit: any
// accepted input must compile, format, reparse, and reach a textual
// fixpoint — parse(format(c)) formats to the same bytes — with the
// input/key/output interface preserved exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(circuits.C17Bench)
	f.Add(seedBench(f, circuits.C17()))
	f.Add(seedBench(f, circuits.FullAdder()))
	f.Add(seedBench(f, circuits.RippleAdder(4)))
	f.Add(seedBench(f, circuits.Parity(5)))
	f.Add(seedBench(f, circuits.Comparator4()))
	f.Add(seedBench(f, circuits.Mux21()))
	f.Add("INPUT(a)\nINPUT(keyinput0)\nOUTPUT(o)\no = XNOR(a, keyinput0)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := bench.ParseString(src, "fuzz")
		if err != nil {
			return // rejection is fine; crashing or accepting garbage is not
		}
		if _, cerr := ir.Compile(c); cerr != nil {
			t.Fatalf("parser accepted an invalid circuit: %v\ninput:\n%s", cerr, src)
		}
		text, err := bench.FormatString(c)
		if err != nil {
			t.Fatalf("accepted circuit failed to format: %v", err)
		}
		// Same name both times: Format echoes it in the header comment.
		back, err := bench.ParseString(text, "fuzz")
		if err != nil {
			t.Fatalf("formatted output failed to reparse: %v\n%s", err, text)
		}
		if back.NumInputs() != c.NumInputs() || back.NumKeys() != c.NumKeys() ||
			back.NumOutputs() != c.NumOutputs() || back.GateCount() != c.GateCount() {
			t.Fatalf("round trip changed the interface:\n%s\nvs\n%s", src, text)
		}
		again, err := bench.FormatString(back)
		if err != nil {
			t.Fatalf("reparsed circuit failed to format: %v", err)
		}
		if again != text {
			t.Fatalf("format is not a fixpoint after one round trip:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}
