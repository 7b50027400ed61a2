package dead

import "testing"

func TestHelper(t *testing.T) {
	if helper() != limit {
		t.Fatal("helper")
	}
}
