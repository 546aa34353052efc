package other

import (
	"testing"

	"deadfixture/internal/lib"
)

func TestUsesLib(t *testing.T) {
	if lib.UsedByTest() != 1 {
		t.Fatal("UsedByTest")
	}
}
