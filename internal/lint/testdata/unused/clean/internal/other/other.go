// Package other consumes package lib from non-test code.
package other

import "fixture/internal/lib"

// Count returns a fresh lib counter.
func Count() *lib.Counter { return lib.NewCounter() }
