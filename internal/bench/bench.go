// Package bench reads and writes circuits in the ISCAS/ITC ".bench" format.
//
// The format is line oriented:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G22)
//	G10 = NAND(G1, G3)
//
// Extensions honoured by this package, matching common logic-locking tool
// conventions:
//
//   - Input names beginning with "keyinput" (case-insensitive) are recorded
//     as key inputs of the resulting circuit, and key inputs are emitted
//     with such names by Format.
//   - "X = DFF(Y)" state elements are accepted and converted to the
//     combinational part: X becomes a pseudo primary input and Y a pseudo
//     primary output, which is the standard extraction used by the paper
//     ("the combinational part of the largest ISCAS'89 and ITC'99
//     benchmark circuits").
package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"orap/internal/ir"
	"orap/internal/netlist"
)

// KeyInputPrefix marks input names that carry key bits.
const KeyInputPrefix = "keyinput"

type rawGate struct {
	name  string
	op    string
	fanin []string
	line  int
}

// rawSignal is a declared INPUT or OUTPUT name with its source line.
type rawSignal struct {
	name string
	line int
}

// Parse reads a .bench description and builds the combinational circuit.
// Failures are reported as *ParseError with the source line, offending
// token and a machine-readable code. Each node of the returned circuit
// records the .bench line it was defined on (netlist.Circuit.SrcLine).
func Parse(r io.Reader, name string) (*netlist.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)

	var (
		inputs   []rawSignal
		outputs  []rawSignal
		gates    []rawGate
		dffIn    []rawSignal // D pins: become pseudo outputs
		dffOut   []rawSignal // Q pins: become pseudo inputs
		lineno   int
		declared = make(map[string]int) // gate LHS name -> defining line
	)

	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case matchDirective(line, "INPUT"):
			arg, err := directiveArg(name, line, "INPUT", lineno)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, rawSignal{arg, lineno})
		case matchDirective(line, "OUTPUT"):
			arg, err := directiveArg(name, line, "OUTPUT", lineno)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, rawSignal{arg, lineno})
		default:
			g, err := parseAssignment(name, line, lineno)
			if err != nil {
				return nil, err
			}
			if g.op == "DFF" {
				if len(g.fanin) != 1 {
					return nil, parseErrf(name, lineno, ErrStructure, g.name,
						"DFF %q needs exactly one fanin", g.name)
				}
				dffOut = append(dffOut, rawSignal{g.name, lineno})
				dffIn = append(dffIn, rawSignal{g.fanin[0], lineno})
				continue
			}
			if prev, ok := declared[g.name]; ok {
				return nil, parseErrf(name, lineno, ErrDupDef, g.name,
					"signal %q defined twice (first definition on line %d)", g.name, prev)
			}
			declared[g.name] = lineno
			gates = append(gates, g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, parseErrf(name, 0, ErrIO, "", "read: %v", err)
	}

	c := netlist.New(name)
	// Declare inputs (functional, then DFF pseudo-inputs), detecting keys.
	for _, in := range inputs {
		var (
			id  int
			err error
		)
		if strings.HasPrefix(strings.ToLower(in.name), KeyInputPrefix) {
			id, err = c.AddKeyInput(in.name)
		} else {
			id, err = c.AddInput(in.name)
		}
		if err != nil {
			return nil, parseErrf(name, in.line, ErrMultiDriven, in.name,
				"input %q declared twice", in.name)
		}
		c.SetSrcLine(id, in.line)
	}
	for _, q := range dffOut {
		id, err := c.AddInput(q.name)
		if err != nil {
			return nil, parseErrf(name, q.line, ErrMultiDriven, q.name,
				"state element %q collides with an earlier declaration", q.name)
		}
		c.SetSrcLine(id, q.line)
	}

	// Build gates iteratively: repeatedly add gates whose fanins exist.
	// .bench files commonly list gates in arbitrary order.
	pending := gates
	for len(pending) > 0 {
		progress := false
		var next []rawGate
		for _, g := range pending {
			ready := true
			for _, f := range g.fanin {
				if _, ok := c.NodeByName(f); !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, g)
				continue
			}
			if err := addGate(c, name, g); err != nil {
				return nil, err
			}
			progress = true
		}
		if !progress {
			return nil, unresolvedError(c, name, next)
		}
		pending = next
	}

	// Declare outputs (functional, then DFF pseudo-outputs).
	for _, out := range append(append([]rawSignal(nil), outputs...), dffIn...) {
		id, ok := c.NodeByName(out.name)
		if !ok {
			return nil, parseErrf(name, out.line, ErrUndefined, out.name,
				"output %q is never defined", out.name)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, parseErrf(name, out.line, ErrStructure, out.name, "%v", err)
		}
	}
	return c, nil
}

// unresolvedError classifies a stuck gate-resolution pass: fanin names
// that no pending gate defines are undefined signals; if every missing
// name is itself a pending definition, the definitions form a
// combinational cycle, which is reported with the actual cycle path.
func unresolvedError(c *netlist.Circuit, file string, pending []rawGate) *ParseError {
	byName := make(map[string]*rawGate, len(pending))
	for i := range pending {
		byName[pending[i].name] = &pending[i]
	}
	var undefined []string
	seenUndef := make(map[string]bool)
	firstLine := 0
	for _, g := range pending {
		for _, f := range g.fanin {
			if _, ok := c.NodeByName(f); ok {
				continue
			}
			if _, ok := byName[f]; ok {
				continue // defined later or on the cycle
			}
			if !seenUndef[f] {
				seenUndef[f] = true
				undefined = append(undefined, f)
				if firstLine == 0 || g.line < firstLine {
					firstLine = g.line
				}
			}
		}
	}
	if len(undefined) > 0 {
		sort.Strings(undefined)
		return parseErrf(file, firstLine, ErrUndefined, undefined[0],
			"undefined signals: %s", strings.Join(undefined, ", "))
	}
	// Every missing fanin is itself pending: find one cycle by walking
	// unresolved fanin edges until a gate repeats.
	g := &pending[0]
	pos := map[string]int{}
	var path []string
	for {
		if at, ok := pos[g.name]; ok {
			cyc := path[at:]
			return parseErrf(file, g.line, ErrCycle, g.name,
				"combinational cycle: %s -> %s", strings.Join(cyc, " -> "), cyc[0])
		}
		pos[g.name] = len(path)
		path = append(path, g.name)
		advanced := false
		for _, f := range g.fanin {
			if nextG, ok := byName[f]; ok {
				if _, resolved := c.NodeByName(f); !resolved {
					g = nextG
					advanced = true
					break
				}
			}
		}
		if !advanced {
			// Cannot happen: a pending gate always has an unresolved,
			// pending fanin at this point. Fail defensively.
			return parseErrf(file, g.line, ErrCycle, g.name,
				"unresolvable signal %q", g.name)
		}
	}
}

// ParseString is Parse over an in-memory description.
func ParseString(s, name string) (*netlist.Circuit, error) {
	return Parse(strings.NewReader(s), name)
}

func matchDirective(line, dir string) bool {
	u := strings.ToUpper(line)
	return strings.HasPrefix(u, dir+"(") || strings.HasPrefix(u, dir+" ")
}

// validName reports whether a signal name can be emitted and reparsed
// unambiguously: no bench syntax characters, and not a directive keyword.
func validName(name string) bool {
	if name == "" {
		return false
	}
	if strings.ContainsAny(name, " \t(),=#") {
		return false
	}
	switch strings.ToUpper(name) {
	case "INPUT", "OUTPUT":
		return false
	}
	return true
}

func directiveArg(file, line, dir string, lineno int) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return "", parseErrf(file, lineno, ErrSyntax, line, "malformed %s directive %q", dir, line)
	}
	arg := strings.TrimSpace(line[open+1 : close])
	if !validName(arg) {
		return "", parseErrf(file, lineno, ErrSyntax, arg, "invalid signal name %q in %s directive", arg, dir)
	}
	return arg, nil
}

func parseAssignment(file, line string, lineno int) (rawGate, error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return rawGate{}, parseErrf(file, lineno, ErrSyntax, line, "expected assignment, got %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close := strings.LastIndexByte(rhs, ')')
	if open < 0 || close < open {
		return rawGate{}, parseErrf(file, lineno, ErrSyntax, rhs, "malformed gate expression %q", rhs)
	}
	op := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	var fanin []string
	for _, part := range strings.Split(rhs[open+1:close], ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			fanin = append(fanin, part)
		}
	}
	if !validName(name) || op == "" {
		return rawGate{}, parseErrf(file, lineno, ErrSyntax, name, "malformed assignment %q", line)
	}
	for _, f := range fanin {
		if !validName(f) {
			return rawGate{}, parseErrf(file, lineno, ErrSyntax, f, "invalid fanin name %q", f)
		}
	}
	return rawGate{name: name, op: op, fanin: fanin, line: lineno}, nil
}

var opToType = map[string]netlist.GateType{
	"AND":  netlist.And,
	"NAND": netlist.Nand,
	"OR":   netlist.Or,
	"NOR":  netlist.Nor,
	"XOR":  netlist.Xor,
	"XNOR": netlist.Xnor,
	"NOT":  netlist.Not,
	"INV":  netlist.Not,
	"BUF":  netlist.Buf,
	"BUFF": netlist.Buf,
}

func addGate(c *netlist.Circuit, file string, g rawGate) error {
	if _, exists := c.NodeByName(g.name); exists {
		return parseErrf(file, g.line, ErrMultiDriven, g.name,
			"signal %q is already driven by an input or state element", g.name)
	}
	t, ok := opToType[g.op]
	if !ok {
		switch g.op {
		case "CONST0", "GND":
			id, err := c.AddConst(false, g.name)
			if err != nil {
				return parseErrf(file, g.line, ErrStructure, g.name, "%v", err)
			}
			c.SetSrcLine(id, g.line)
			return nil
		case "CONST1", "VDD":
			id, err := c.AddConst(true, g.name)
			if err != nil {
				return parseErrf(file, g.line, ErrStructure, g.name, "%v", err)
			}
			c.SetSrcLine(id, g.line)
			return nil
		}
		return parseErrf(file, g.line, ErrUnknownOp, g.op, "unknown operator %q", g.op)
	}
	ids := make([]int, len(g.fanin))
	for i, f := range g.fanin {
		id, ok := c.NodeByName(f)
		if !ok {
			return parseErrf(file, g.line, ErrUndefined, f,
				"gate %q references undefined signal %q", g.name, f)
		}
		ids[i] = id
	}
	// Tolerate single-input AND/OR/etc. (some generators emit them) by
	// lowering to BUF, and single-input NAND/NOR/XNOR to NOT.
	if len(ids) == 1 && t != netlist.Buf && t != netlist.Not {
		if t.Inverting() {
			t = netlist.Not
		} else {
			t = netlist.Buf
		}
	}
	id, err := c.AddGate(t, g.name, ids...)
	if err != nil {
		return parseErrf(file, g.line, ErrStructure, g.name, "%v", err)
	}
	c.SetSrcLine(id, g.line)
	return nil
}

// Format writes the circuit in .bench syntax, gates in the compiled
// program's topological order; an ill-formed circuit is refused with
// ir.Compile's error. Key inputs are emitted before regular inputs only
// if they were declared first; declaration order is preserved. Unnamed
// nodes — and nodes whose names would be ambiguous in bench syntax
// (directive keywords, delimiter characters) — receive synthetic names,
// applied consistently across declarations and fanins.
func Format(w io.Writer, c *netlist.Circuit) error {
	prog, err := ir.Compile(c)
	if err != nil {
		return err
	}
	names := formatNames(c)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d key inputs, %d outputs, %d gates\n",
		c.NumInputs(), c.NumKeys(), c.NumOutputs(), c.GateCount())
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", names[id])
	}
	for _, id := range c.Keys {
		fmt.Fprintf(bw, "INPUT(%s)\n", names[id])
	}
	for _, id := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", names[id])
	}
	for _, id := range prog.Order {
		g := c.Gates[id]
		switch g.Type {
		case netlist.Input:
			continue
		case netlist.Const0:
			fmt.Fprintf(bw, "%s = CONST0()\n", names[id])
			continue
		case netlist.Const1:
			fmt.Fprintf(bw, "%s = CONST1()\n", names[id])
			continue
		}
		fanin := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = names[f]
		}
		op := strings.ToUpper(g.Type.String())
		fmt.Fprintf(bw, "%s = %s(%s)\n", names[id], op, strings.Join(fanin, ", "))
	}
	return bw.Flush()
}

// formatNames returns the name Format writes for every node: its own
// name when bench syntax can carry it, else "n<id>" for an unnamed node
// or "n<id>_" for an unusable name, extended with "_" until it matches
// no named net of the circuit. The id digits keep two fallbacks apart.
func formatNames(c *netlist.Circuit) []string {
	names := make([]string, c.NumNodes())
	for id := range names {
		name := c.NameOf(id)
		if id < len(c.NodeNames) && c.NodeNames[id] != "" {
			if validName(name) {
				names[id] = name
				continue
			}
			name = fmt.Sprintf("n%d_", id)
		}
		for {
			if _, named := c.NodeByName(name); !named {
				break
			}
			name += "_"
		}
		names[id] = name
	}
	return names
}

// FormatString renders the circuit to a .bench string.
func FormatString(c *netlist.Circuit) (string, error) {
	var b strings.Builder
	if err := Format(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}
