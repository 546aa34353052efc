package main

import (
	"fmt"
	"io"

	"orap/internal/audit"
	"orap/internal/dataflow"
	"orap/internal/ir"
	"orap/internal/netlist"
)

// printExplained renders the report like Report.String, but follows
// every key-anchored finding with the witness path audit.Explain
// reconstructs: the chain of nets from the key input to the finding's
// anchor, annotated with the abstract values the engine proved on each
// step. The witness lines are indented, so dropping them leaves exactly
// the plain report.
func printExplained(w io.Writer, prog *ir.Program, c *netlist.Circuit, rep *audit.Report) {
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "%s: %s\n", rep.Circuit, f)
		if f.KeyBit < 0 || f.Node < 0 {
			continue
		}
		steps := audit.Explain(prog, c, f)
		if len(steps) == 0 {
			continue
		}
		fmt.Fprintf(w, "  witness path (key bit %d -> %s):\n", f.KeyBit, steps[len(steps)-1].Name)
		for _, s := range steps {
			fmt.Fprintf(w, "    %-6v %-12s pair=(%s,%s%s) taint=%d cc=%d/%d co=%s\n",
				s.Op, s.Name, tern(s.V0), tern(s.V1), pairFlags(s),
				s.TaintBits, s.CC0, s.CC1, coStr(s.CO))
		}
	}
	fmt.Fprint(w, rep.Trailer())
}

// tern renders a ternary abstract value.
func tern(v int8) string {
	if v == dataflow.Unknown {
		return "?"
	}
	return fmt.Sprintf("%d", v)
}

// pairFlags renders the pair domain's proof flags.
func pairFlags(s audit.PathStep) string {
	switch {
	case s.Anti:
		return " anti"
	case s.Eq:
		return " eq"
	}
	return ""
}

// coStr renders an observability score, with the lattice ceiling shown
// as unreachable.
func coStr(co int32) string {
	if co >= dataflow.Unreachable {
		return "unreach"
	}
	return fmt.Sprintf("%d", co)
}
