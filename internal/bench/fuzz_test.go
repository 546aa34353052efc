package bench

import (
	"strings"
	"testing"

	"orap/internal/ir"
)

// FuzzParse feeds arbitrary text to the .bench parser: it must either
// return an error or a circuit that ir.Compile accepts and that
// round-trips. Parse itself never validates; the AddGate and MarkOutput
// calls it makes are what keep an accepted circuit well-formed.
func FuzzParse(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Add(c17)
	f.Add("INPUT(a)\nINPUT(keyinput0)\nOUTPUT(o)\no = XOR(a, keyinput0)\n")
	f.Add("q = DFF(d)\nINPUT(a)\nOUTPUT(y)\nd = AND(a, q)\ny = NOT(q)\n")
	f.Add("p cnf nonsense\n= ()\n")
	f.Add("INPUT(a)\nOUTPUT(a)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src, "fuzz")
		if err != nil {
			return // rejection is fine; crashing is not
		}
		if _, cerr := ir.Compile(c); cerr != nil {
			t.Fatalf("parser accepted an invalid circuit: %v\ninput:\n%s", cerr, src)
		}
		text, err := FormatString(c)
		if err != nil {
			t.Fatalf("accepted circuit failed to format: %v", err)
		}
		back, err := ParseString(text, "fuzz2")
		if err != nil {
			t.Fatalf("formatted output failed to reparse: %v\n%s", err, text)
		}
		if back.NumInputs() != c.NumInputs() || back.NumOutputs() != c.NumOutputs() ||
			back.GateCount() != c.GateCount() {
			t.Fatalf("round trip changed shape:\n%s\nvs\n%s", src, text)
		}
	})
}

// FuzzDirectiveArg guards the low-level directive splitting.
func FuzzDirectiveArg(f *testing.F) {
	f.Add("INPUT(a)")
	f.Add("INPUT()")
	f.Add("INPUT(")
	f.Add("INPUT)a(")
	f.Fuzz(func(t *testing.T, line string) {
		if !strings.HasPrefix(strings.ToUpper(line), "INPUT") {
			return
		}
		// Must not panic regardless of shape.
		_, _ = directiveArg("fuzz", line, "INPUT", 1)
	})
}
