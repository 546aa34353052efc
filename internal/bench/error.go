package bench

import "fmt"

// ErrCode classifies parse failures so tools (internal/check, the cmd
// loaders) can map them to diagnostics without string matching.
type ErrCode uint8

// Parse error codes.
const (
	// ErrSyntax covers malformed lines: bad directives, missing '=',
	// invalid signal names, unbalanced parentheses.
	ErrSyntax ErrCode = iota
	// ErrUnknownOp is an assignment with an unrecognized gate operator.
	ErrUnknownOp
	// ErrDupDef is a signal assigned by two gate definitions.
	ErrDupDef
	// ErrMultiDriven is a signal driven more than once across kinds:
	// an INPUT that is also a gate output, or a repeated INPUT.
	ErrMultiDriven
	// ErrUndefined is a reference to a signal that is never defined.
	ErrUndefined
	// ErrCycle is a combinational cycle among the gate definitions.
	ErrCycle
	// ErrStructure covers arity and reference rules surfaced while
	// building the circuit (a DFF with other than one fanin, a gate
	// netlist's AddGate refuses).
	ErrStructure
	// ErrIO is a read failure from the underlying reader.
	ErrIO
)

var errCodeNames = [...]string{
	ErrSyntax:      "syntax",
	ErrUnknownOp:   "unknown-op",
	ErrDupDef:      "dup-def",
	ErrMultiDriven: "multi-driven",
	ErrUndefined:   "undefined",
	ErrCycle:       "cycle",
	ErrStructure:   "structure",
	ErrIO:          "io",
}

// String returns the short diagnostic name of the code.
func (c ErrCode) String() string {
	if int(c) < len(errCodeNames) {
		return errCodeNames[c]
	}
	return fmt.Sprintf("ErrCode(%d)", uint8(c))
}

// ParseError is a structured .bench parse failure: the file (the name
// passed to Parse), the 1-based source line, the offending token (a
// signal name, operator or raw line fragment, possibly empty), a
// machine-readable code and a human-readable message.
type ParseError struct {
	File  string
	Line  int
	Token string
	Code  ErrCode
	Msg   string
}

// Error implements the error interface: "file:line: message" with the
// line omitted when unknown (0).
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.File, e.Msg)
}

// parseErrf builds a ParseError with a formatted message.
func parseErrf(file string, line int, code ErrCode, token, format string, args ...interface{}) *ParseError {
	return &ParseError{
		File:  file,
		Line:  line,
		Token: token,
		Code:  code,
		Msg:   fmt.Sprintf(format, args...),
	}
}
