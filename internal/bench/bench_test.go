package bench

import (
	"strings"
	"testing"

	"orap/internal/ir"
	"orap/internal/netlist"
)

const c17 = `# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func TestParseC17(t *testing.T) {
	c, err := ParseString(c17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 5 || c.NumOutputs() != 2 || c.NumKeys() != 0 {
		t.Fatalf("bad shape: %d/%d/%d", c.NumInputs(), c.NumKeys(), c.NumOutputs())
	}
	if got := c.GateCount(); got != 6 {
		t.Fatalf("gate count = %d, want 6", got)
	}
	if _, err := ir.Compile(c); err != nil {
		t.Fatal(err)
	}
}

func TestParseDetectsKeyInputs(t *testing.T) {
	src := `INPUT(a)
INPUT(keyinput0)
INPUT(KEYINPUT1)
OUTPUT(o)
t = XOR(a, keyinput0)
o = XNOR(t, KEYINPUT1)
`
	c, err := ParseString(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumKeys() != 2 {
		t.Fatalf("key inputs = %d, want 2", c.NumKeys())
	}
	if c.NumInputs() != 1 {
		t.Fatalf("primary inputs = %d, want 1", c.NumInputs())
	}
}

func TestParseOutOfOrderGates(t *testing.T) {
	src := `INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(t1, t2)
t2 = OR(a, b)
t1 = NAND(a, b)
`
	c, err := ParseString(src, "ooo")
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 3 {
		t.Fatalf("gate count = %d, want 3", c.GateCount())
	}
}

func TestParseDFFSplitsCombinationalPart(t *testing.T) {
	src := `INPUT(a)
OUTPUT(y)
q = DFF(d)
d = AND(a, q)
y = NOT(q)
`
	c, err := ParseString(src, "seq")
	if err != nil {
		t.Fatal(err)
	}
	// q becomes a pseudo input, d a pseudo output.
	if c.NumInputs() != 2 {
		t.Fatalf("inputs = %d, want 2 (a + pseudo q)", c.NumInputs())
	}
	if c.NumOutputs() != 2 {
		t.Fatalf("outputs = %d, want 2 (y + pseudo d)", c.NumOutputs())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"undefined signal":   "INPUT(a)\nOUTPUT(y)\ny = AND(a, nope)\n",
		"double definition":  "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n",
		"unknown op":         "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n",
		"malformed line":     "INPUT(a)\nOUTPUT(y)\nthis is not bench\n",
		"undefined output":   "INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n",
		"combinational loop": "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(a, x)\n",
	}
	for name, src := range cases {
		if _, err := ParseString(src, name); err == nil {
			t.Errorf("%s: parse accepted invalid input", name)
		}
	}
}

func TestSingleInputGateLowering(t *testing.T) {
	src := `INPUT(a)
OUTPUT(y)
t = AND(a)
y = NAND(t)
`
	c, err := ParseString(src, "lower")
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := c.NodeByName("t")
	yn, _ := c.NodeByName("y")
	if c.Gates[tn].Type != netlist.Buf {
		t.Fatalf("AND(a) lowered to %v, want BUF", c.Gates[tn].Type)
	}
	if c.Gates[yn].Type != netlist.Not {
		t.Fatalf("NAND(t) lowered to %v, want NOT", c.Gates[yn].Type)
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := ParseString(c17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	text, err := FormatString(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text, "c17")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if back.NumInputs() != orig.NumInputs() || back.NumOutputs() != orig.NumOutputs() ||
		back.GateCount() != orig.GateCount() {
		t.Fatalf("round trip changed shape:\n%s", text)
	}
}

func TestRoundTripPreservesKeyInputs(t *testing.T) {
	c := netlist.New("k")
	a, _ := c.AddInput("a")
	k, _ := c.AddKeyInput("keyinput0")
	g := c.MustAddGate(netlist.Xor, "y", a, k)
	c.MarkOutput(g)
	text, err := FormatString(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text, "k")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumKeys() != 1 {
		t.Fatalf("key inputs lost in round trip:\n%s", text)
	}
}

func TestFormatConstants(t *testing.T) {
	c := netlist.New("const")
	a, _ := c.AddInput("a")
	one, _ := c.AddConst(true, "one")
	g := c.MustAddGate(netlist.And, "y", a, one)
	c.MarkOutput(g)
	text, err := FormatString(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "CONST1") {
		t.Fatalf("constant missing from output:\n%s", text)
	}
	back, err := ParseString(text, "const")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != c.NumNodes() {
		t.Fatalf("round trip changed node count %d -> %d", c.NumNodes(), back.NumNodes())
	}
}

func TestParseWhitespaceAndComments(t *testing.T) {
	src := "\n# leading comment\n  INPUT( a )\n\nOUTPUT( y )\n# mid comment\n y  =  NOT( a )\n"
	c, err := ParseString(src, "ws")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 1 || c.NumOutputs() != 1 {
		t.Fatal("whitespace handling broken")
	}
}

// TestParseErrorStructure checks that parse failures carry the source
// line, offending token and machine-readable code.
func TestParseErrorStructure(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		code  ErrCode
		line  int
		token string
	}{
		{"undefined", "INPUT(a)\nOUTPUT(y)\ny = AND(a, nope)\n", ErrUndefined, 3, "nope"},
		{"dup-def", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", ErrDupDef, 4, "y"},
		{"multi-driven", "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", ErrMultiDriven, 2, "a"},
		{"input-redriven", "INPUT(a)\nOUTPUT(y)\na = NOT(y)\ny = BUF(a)\n", ErrMultiDriven, 3, "a"},
		{"unknown-op", "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n", ErrUnknownOp, 3, "MAJ"},
		{"syntax", "INPUT(a)\nnot bench at all\n", ErrSyntax, 2, ""},
		{"cycle", "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(a, x)\n", ErrCycle, 0, ""},
		{"undefined-output", "INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n", ErrUndefined, 2, "nope"},
	}
	for _, tc := range cases {
		_, err := ParseString(tc.src, tc.name)
		if err == nil {
			t.Errorf("%s: parse accepted invalid input", tc.name)
			continue
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%s: error is %T, want *ParseError (%v)", tc.name, err, err)
			continue
		}
		if pe.Code != tc.code {
			t.Errorf("%s: code = %v, want %v (%v)", tc.name, pe.Code, tc.code, pe)
		}
		if tc.line > 0 && pe.Line != tc.line {
			t.Errorf("%s: line = %d, want %d (%v)", tc.name, pe.Line, tc.line, pe)
		}
		if tc.token != "" && pe.Token != tc.token {
			t.Errorf("%s: token = %q, want %q (%v)", tc.name, pe.Token, tc.token, pe)
		}
		if pe.File != tc.name {
			t.Errorf("%s: file = %q, want %q", tc.name, pe.File, tc.name)
		}
	}
}

// TestParseCyclePath checks the cycle error prints the actual loop.
func TestParseCyclePath(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(a, z)\nz = NOT(x)\n"
	_, err := ParseString(src, "loop")
	if err == nil {
		t.Fatal("parse accepted a cyclic netlist")
	}
	pe, ok := err.(*ParseError)
	if !ok || pe.Code != ErrCycle {
		t.Fatalf("got %v, want an ErrCycle ParseError", err)
	}
	for _, name := range []string{"x", "y", "z"} {
		if !strings.Contains(pe.Msg, name) {
			t.Fatalf("cycle message %q does not name signal %s", pe.Msg, name)
		}
	}
}

// TestParseRecordsSourceLines checks per-node line numbers land on the
// parsed circuit for check diagnostics.
func TestParseRecordsSourceLines(t *testing.T) {
	src := "# comment\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\n\nmid = AND(a, b)\ny = NOT(mid)\n"
	c, err := ParseString(src, "lines")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 2, "b": 3, "mid": 6, "y": 7}
	for name, line := range want {
		id, ok := c.NodeByName(name)
		if !ok {
			t.Fatalf("node %s missing", name)
		}
		if got := c.SrcLine(id); got != line {
			t.Errorf("SrcLine(%s) = %d, want %d", name, got, line)
		}
	}
}

// TestFormatFallbackNamesAvoidClashes round-trips a circuit whose unnamed
// gate's fallback name "n2" is already a real input's name: Format must
// pick another name, and the reparsed circuit must compute the same
// function.
func TestFormatFallbackNamesAvoidClashes(t *testing.T) {
	c := netlist.New("clash")
	a, _ := c.AddInput("a")
	n2, _ := c.AddInput("n2")
	g := c.MustAddGate(netlist.And, "", a, n2)
	y := c.MustAddGate(netlist.Not, "y", g)
	c.MarkOutput(y)
	text, err := FormatString(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text, "clash")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	want, got := ir.MustCompile(c), ir.MustCompile(back)
	for v := 0; v < 4; v++ {
		in := []bool{v&1 != 0, v&2 != 0}
		w, err := want.Eval(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Eval(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w[0] != g[0] {
			t.Fatalf("pattern %v: reparsed circuit gives %v, want %v\n%s", in, g[0], w[0], text)
		}
	}
}
