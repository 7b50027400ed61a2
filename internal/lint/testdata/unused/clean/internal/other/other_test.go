package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestAgainstOracle(t *testing.T) {
	if Count().Peek() != 1 || lib.Oracle() != 42 {
		t.Fatal("oracle")
	}
}
