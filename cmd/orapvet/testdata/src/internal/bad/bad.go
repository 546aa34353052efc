// Package bad seeds exactly one violation per orapvet rule; the
// analyzer unit tests assert each one is caught at the right place.
package bad

import (
	"math/rand"
	"time"

	"vetfixture/internal/ir"
)

func Sample() int { return rand.Int() }

func Stamp() int64 { return time.Now().UnixNano() }

func Elapsed(t0 time.Time) time.Duration { return time.Since(t0) }

func Rename(prog *ir.Program) {
	prog.Name = "hacked"
}

func Patch(prog *ir.Program) {
	prog.Ops[0] = 1
}
