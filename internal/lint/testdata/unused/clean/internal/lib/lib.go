// Package lib is a clean fixture: every declaration has a consumer the
// unused analyzer must recognise.
package lib

import "fmt"

// Shape is satisfied by Square; Area is called only through it.
type Shape interface{ Area() int }

// Square implements Shape and, unnamed anywhere, fmt.Stringer.
type Square struct{ Side int }

// Area implements Shape.
func (s Square) Area() int { return s.Side * s.Side }

// String implements fmt.Stringer.
func (s Square) String() string { return fmt.Sprintf("square(%d)", s.Side) }

// Total sums the areas through the interface.
func Total(shapes []Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// stack is generic; push is reached only through stack[int].
type stack[T any] struct{ items []T }

func (s *stack[T]) push(v T) { s.items = append(s.items, v) }

// Depth pushes n ints and reports the stack depth.
func Depth(n int) int {
	var s stack[int]
	for i := 0; i < n; i++ {
		s.push(i)
	}
	return len(s.items)
}

// Oracle is used only by the tests of package other.
func Oracle() int { return 42 }

// Counter's Peek is used only by the tests of package other, by
// selector name.
type Counter struct{ n int }

// NewCounter is used by package other.
func NewCounter() *Counter { return &Counter{n: 1} }

// Peek reports the count.
func (c *Counter) Peek() int { return c.n }

// ForOutside is used only by the module nested under outside/.
func ForOutside() string { return "outside" }
