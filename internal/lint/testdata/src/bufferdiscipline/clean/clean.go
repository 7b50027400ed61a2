// Package gca is a clean fixture: the real machine's idioms — read the
// current buffer, write the next buffer, commit with swap, hand the raw
// buffers to a bulk kernel — must pass without a single diagnostic.
package gca

type Value int64

type Cell struct {
	D Value
	A Value
}

// Field mirrors the real struct-of-arrays field: double-buffered data
// plus a static auxiliary slice.
type Field struct {
	cur, next []Value
	a         []Value
}

func NewField(size int) *Field {
	return &Field{cur: make([]Value, size), next: make([]Value, size), a: make([]Value, size)}
}

func (f *Field) Len() int               { return len(f.cur) }
func (f *Field) Cell(i int) Cell        { return Cell{D: f.cur[i], A: f.a[i]} }
func (f *Field) SetCell(i int, c Cell)  { f.cur[i] = c.D; f.a[i] = c.A }
func (f *Field) SetData(i int, d Value) { f.cur[i] = d }
func (f *Field) swap()                  { f.cur, f.next = f.next, f.cur }

func (f *Field) Snapshot(dst []Value) []Value {
	return append(dst, f.cur...)
}

// Kernel mirrors the real gca.Kernel contract.
type Kernel func(lo, hi int, cur, next, a []Value) (int, int, error)

type Machine struct {
	field *Field
}

// runRange is the sanctioned step shape: element reads from cur, element
// writes to next, and the raw-buffer hand-off to a Kernel-typed value.
func (m *Machine) runRange(k Kernel, lo, hi int) {
	cur := m.field.cur
	next := m.field.next
	if k != nil {
		_, _, _ = k(lo, hi, cur, next, m.field.a)
		return
	}
	for i := lo; i < hi; i++ {
		next[i] = cur[i] + 1
	}
	_ = len(next)
}

// goodKernel is the sanctioned kernel shape: element reads of cur and a,
// element writes and copy-into of next, len allowed.
func goodKernel(lo, hi int, cur, next, a []Value) (int, int, error) {
	active := 0
	copy(next[lo:hi], cur[lo:hi])
	for i := lo; i < hi && i < len(cur); i++ {
		v := cur[i] + a[i]
		next[i] = v
		if v != cur[i] {
			active++
		}
	}
	return active, hi - lo, nil
}

// broadcastKernel mirrors the real column-broadcast kernels: a read
// cursor derived from lo and stepped by the row stride is range-rooted,
// and min/max are scalar-safe builtins even over buffer elements.
func broadcastKernel(lo, hi int, cur, next, a []Value) (int, int, error) {
	const n = 4
	cn := (lo % n) * n
	for i := lo; i < hi; i++ {
		next[i] = min(cur[cn], a[i])
		cn += n
	}
	return hi - lo, 2 * (hi - lo), nil
}

// windowKernel mirrors the bounds-check-free sweeps: the run's windows
// of next and cur are sliced once, cur windows are narrowed to the next
// window's length, and the loop ranges over the next window's indices
// only.
func windowKernel(lo, hi int, cur, next, a []Value) (int, int, error) {
	dst, src, far := next[lo:hi], cur[lo:hi], cur[lo+1:hi+1]
	src, far = src[:len(dst)], far[:len(dst)]
	active := 0
	for i := range dst {
		d := src[i]
		v := min(d, far[i])
		dst[i] = v
		if v != d {
			active++
		}
	}
	copy(dst, src)
	return active, len(dst), nil
}

// singleCell mirrors the column-0 kernels, which blank the upper bound:
// lo alone still roots the range discipline.
func singleCell(lo, _ int, cur, next, a []Value) (int, int, error) {
	v := max(cur[lo], a[lo])
	next[lo] = v
	if v != cur[lo] {
		return 1, 1, nil
	}
	return 0, 1, nil
}

// wholePlane has no lo/hi range parameters, so the range-write check
// does not apply — only the cur/next role discipline does.
func wholePlane(cur, next []Value) {
	for i := range cur {
		next[i] = cur[i]
	}
}

type goodRule struct{ n int }

// Pointer and Update are pure over their arguments.
func (r goodRule) Pointer(i int, self Cell) int { return (i + 1) % r.n }

func (r goodRule) Update(i int, self, global Cell) Value {
	if global.D < self.D {
		return global.D
	}
	return self.D
}
