package user

import (
	"testing"

	"typeerrfixture/internal/lib"
)

// broken is the type error. Package-level declarations are checked
// before function bodies, so a check that stopped here would never see
// the call below.
var broken int = "not an int"

func TestProbe(t *testing.T) {
	if (lib.T{}).Probe() != 2 {
		t.Fatal("Probe")
	}
}
