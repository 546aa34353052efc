package check

import (
	"strings"
	"testing"
)

// FuzzCheckCircuit extends the .bench fuzz surface through the checker:
// whatever the parser accepts or rejects, running the full rule set must
// never panic — diagnostics and clean reports are both fine.
func FuzzCheckCircuit(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Add("INPUT(a)\nINPUT(keyinput0)\nOUTPUT(o)\no = XOR(a, keyinput0)\n")
	f.Add("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(a, x)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ndead = OR(a, a)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\nz = XOR(a, a)\ny = AND(a, z)\n")
	f.Add("q = DFF(d)\nINPUT(a)\nOUTPUT(y)\nd = AND(a, q)\ny = NOT(q)\n")
	f.Add("p cnf nonsense\n= ()\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, rep := source(strings.NewReader(src), "fuzz")
		if rep == nil {
			t.Fatal("source returned a nil report")
		}
		if c == nil && len(rep.Findings) == 0 {
			t.Fatal("parse failed but the report is empty")
		}
		// Diagnostics must render without panicking either.
		_ = rep.String()
		for _, d := range rep.Findings {
			_ = d.String()
		}
	})
}
