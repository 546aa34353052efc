package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 5 || (T{}).TestedOnly() != 12 {
		t.Fatal("OwnTestOnly")
	}
}
