// Package gca is a deliberately-bad fixture: it violates the
// double-buffer discipline in every way the analyzer must catch.
package gca

type Value int64

type Cell struct {
	D Value
	A Value
}

type Field struct {
	cur, next []Cell
}

func (f *Field) swap() { f.cur, f.next = f.next, f.cur }

// SetCell is the sanctioned initialisation write; it must not flag.
func (f *Field) SetCell(i int, c Cell) { f.cur[i] = c }

func (f *Field) stepBad(i int) {
	f.cur[i] = Cell{D: 1} // want "writes the current-state buffer"
	_ = f.next[i].D       // want "reads an element of the next-state buffer"
}

func (f *Field) aliasBad() {
	cur := f.cur
	next := f.next
	cur[0] = Cell{}          // want "writes the current-state buffer"
	for _, c := range next { // want "ranges over the next-state buffer"
		_ = c
	}
}

func leak(f *Field) {
	consume(f.next) // want "passes the next-state buffer"
}

func consume([]Cell) {}

// Kernel mirrors the real gca.Kernel contract: bulk generation
// evaluators receive the raw buffers and must read cur / write next.
type Kernel func(lo, hi int, cur, next, a []Value) (int, int, error)

// badKernel violates the kernel discipline in every way the analyzer
// must catch.
func badKernel(lo, hi int, cur, next, a []Value) (int, int, error) {
	cur[lo] = 1               // want "writes the current-generation buffer"
	_ = next[lo]              // want "reads an element of the next-generation buffer"
	copy(cur[lo:hi], a[lo:])  // want "copies into the current-generation buffer"
	copy(a[lo:hi], next[lo:]) // want "copies out of the next-generation buffer"
	leaked := next            // want "aliases the next buffer"
	_ = leaked
	consumeValues(cur) // want "passes the cur buffer"
	for i := lo; i < hi; i++ {
		next[i] = a[i]
	}
	return 0, 0, nil
}

func escapeKernel(lo, hi int, cur, next []Value) []Value {
	for i := lo; i < hi; i++ {
		next[i] = cur[i]
	}
	return next // want "returns the next buffer"
}

// rangeKernel violates the active-range contract: with the plan-routed
// machine only gap-copying cells outside [lo, hi), any next write whose
// index is not derived from the range races the copy.
func rangeKernel(lo, hi int, cur, next, a []Value) (int, int, error) {
	cn := lo + 1 // derived cursors stay rooted
	for i := lo; i < hi; i++ {
		next[i] = cur[i]
		next[cn] = a[i]
		cn++
	}
	next[0] = cur[0]        // want "index not derived from the kernel"
	copy(next[2:6], a[2:6]) // want "bounds not derived from the kernel"
	copy(next, a)           // want "bounds not derived from the kernel"
	copy(next[lo:], a)      // want "bounds not derived from the kernel"
	return 0, 0, nil
}

// windowBadKernel breaks the discipline through windows: a window
// carries its buffer's role, and a window of next must be bound with
// range-derived bounds.
func windowBadKernel(lo, hi int, cur, next []Value) (int, int, error) {
	dst, src := next[lo:hi], cur[lo:hi]
	src[0] = 1              // want "writes the current-generation buffer"
	_ = dst[0]              // want "reads an element of the next-generation buffer"
	for _, v := range dst { // want "ranges over the next-generation buffer"
		_ = v
	}
	wide := next[0:hi] // want "binds a window of next with bounds not derived"
	wide[0] = 1
	consumeValues(src) // want "passes the cur buffer"
	return 0, 0, nil
}

// badCommit moves buffer contents against the grain outside the
// sanctioned commit helpers (swap, commitRange).
func (f *Field) badCommit(scratch []Cell) {
	copy(f.cur, scratch)           // want "copies into the current-state buffer"
	copy(scratch, f.next)          // want "copies out of the next-state buffer"
	copy(f.cur[0:4], scratch[0:4]) // want "copies into the current-state buffer"
	copy(scratch[1:], f.next[1:2]) // want "copies out of the next-state buffer"
}

// commitRange is the sanctioned span-mode commit: like swap, it may move
// next into cur, and must not flag.
func (f *Field) commitRange(lo, hi int) { copy(f.cur[lo:hi], f.next[lo:hi]) }

func consumeValues([]Value) {}

type badRule struct{ f *Field }

func (r badRule) Pointer(i int, self Cell) int {
	_ = r.f.cur // want "rule method badRule.Pointer references the Field"
	return i
}

func (r badRule) Update(i int, self, global Cell) Value {
	r.f.SetCell(i, global) // want "rule method badRule.Update references the Field"
	return self.D
}
