package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 5 {
		t.Fatal("OwnTestOnly")
	}
}
