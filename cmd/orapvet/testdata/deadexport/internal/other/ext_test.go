package other_test

import (
	"testing"

	"deadfixture/internal/lib"
)

func TestUsesLibMethod(t *testing.T) {
	if (lib.T{}).ForOtherTest() != 9 {
		t.Fatal("ForOtherTest")
	}
}
