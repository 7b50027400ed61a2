// Package dead is a deliberately-bad fixture: one of each kind of
// declaration that nothing consumes.
package dead

// Live is called from cmd/tool, so it and its type are used.
func Live() Box { return Box{n: limit} }

// Box is used; one of its methods is not.
type Box struct{ n int }

// Size is called from cmd/tool.
func (b Box) Size() int { return b.n }

func (b Box) shrink() { b.n-- } // want "method Box.shrink is unused"

const limit = 3

const stale = 4 // want "const stale is unused"

var spare int // want "var spare is unused"

type ghost struct{} // want "type ghost is unused"

func orphan() {} // want "func orphan is unused"

// countdown refers only to itself, which does not count.
func countdown(n int) int { // want "func countdown is unused"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// helper belongs in dead_test.go.
func helper() int { return limit } // want "used only by its own package's tests"

// Sample is named only by the external test package dead_test, which
// still counts as this package's own tests.
func Sample() Box { return Box{n: 1} } // want "used only by its own package's tests"
