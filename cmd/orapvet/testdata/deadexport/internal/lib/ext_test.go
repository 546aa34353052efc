package lib_test

import (
	"testing"

	"deadfixture/internal/lib"
)

func TestOwnExternal(t *testing.T) {
	if lib.OwnTestOnly() != 5 || (lib.T{}).TestedOnly() != 12 {
		t.Fatal("OwnTestOnly")
	}
}
