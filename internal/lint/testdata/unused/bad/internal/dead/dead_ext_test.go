package dead_test

import (
	"testing"

	"fixture/internal/dead"
)

func TestSample(t *testing.T) {
	if dead.Sample().Size() != 1 {
		t.Fatal("sample")
	}
}
