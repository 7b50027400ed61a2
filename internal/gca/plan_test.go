package gca

import (
	"fmt"
	"testing"
)

// planMember is the brute-force reference for plan geometry: whether cell
// i is active under p.
func planMember(p Plan, i int) bool {
	if p.SegLen <= 0 || p.Count <= 0 {
		return false
	}
	if i < p.Lo {
		return false
	}
	if p.Stride <= 0 {
		return i < p.Lo+p.SegLen
	}
	off := (i - p.Lo) % p.Stride
	seg := (i - p.Lo) / p.Stride
	return seg < p.Count && off < p.SegLen
}

// TestForEachRunMatchesMembership checks the run/gap decomposition
// against brute-force membership for a grid of plans and windows: every
// cell of [lo, hi) must be covered exactly once, actives exactly the
// member cells, and no run may span two segments.
func TestForEachRunMatchesMembership(t *testing.T) {
	plans := []Plan{
		{},                                        // zero plan: semantically full, mechanically all-gap here
		{Lo: 0, SegLen: 0, Stride: 4, Count: 5},   // empty region
		{Lo: 0, SegLen: 4, Stride: 4, Count: 5},   // contiguous full cover
		{Lo: 0, SegLen: 1, Stride: 4, Count: 5},   // column 0
		{Lo: 1, SegLen: 3, Stride: 4, Count: 5},   // all but column 0
		{Lo: 0, SegLen: 2, Stride: 4, Count: 5},   // first half of each row
		{Lo: 5, SegLen: 2, Stride: 7, Count: 3},   // offset, odd stride
		{Lo: 0, SegLen: 20, Stride: 20, Count: 1}, // one whole-field segment
	}
	for pi, p := range plans {
		size := 20
		for lo := 0; lo <= size; lo++ {
			for hi := lo; hi <= size; hi++ {
				covered := make([]int, size) // 0 = untouched, 1 = active, 2 = gap
				runs := 0
				p.forEachRun(lo, hi,
					func(rLo, rHi int) {
						runs++
						if rLo >= rHi {
							t.Fatalf("plan %d [%d,%d): empty active run [%d,%d)", pi, lo, hi, rLo, rHi)
						}
						if p.Stride > 0 && p.SegLen > 0 {
							if (rLo-p.Lo)/p.Stride != (rHi-1-p.Lo)/p.Stride {
								t.Fatalf("plan %d [%d,%d): run [%d,%d) spans two segments", pi, lo, hi, rLo, rHi)
							}
						}
						for i := rLo; i < rHi; i++ {
							covered[i]++
						}
					},
					func(gLo, gHi int) {
						if gLo >= gHi {
							t.Fatalf("plan %d [%d,%d): empty gap [%d,%d)", pi, lo, hi, gLo, gHi)
						}
						for i := gLo; i < gHi; i++ {
							covered[i] += 2
						}
					})
				for i := 0; i < size; i++ {
					want := 0
					if i >= lo && i < hi {
						want = 2
						if planMember(p, i) {
							want = 1
						}
					}
					if covered[i] != want {
						t.Fatalf("plan %d %+v window [%d,%d): cell %d coverage %d, want %d",
							pi, p, lo, hi, i, covered[i], want)
					}
				}
				_ = runs
			}
		}
	}
}

// TestPlanValidate pins the accept/reject boundary of plan validation.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		p    Plan
		size int
		ok   bool
	}{
		{Plan{}, 10, true}, // zero plan: whole field
		{Plan{Lo: 0, SegLen: 10, Stride: 10, Count: 1}, 10, true},
		{Plan{Lo: 0, SegLen: 1, Stride: 4, Count: 3}, 12, true},  // column 0
		{Plan{Lo: 0, SegLen: 0, Stride: 4, Count: 3}, 12, true},  // empty region
		{Plan{Lo: 0, SegLen: 5, Stride: 4, Count: 3}, 40, false}, // overlapping segments
		{Plan{Lo: 0, SegLen: 4, Stride: 4, Count: 4}, 12, false}, // past the end
		{Plan{Lo: -1, SegLen: 1, Stride: 4, Count: 1}, 12, false},
		{Plan{Lo: 11, SegLen: 1, Stride: 1, Count: 1}, 12, true}, // last cell
		{Plan{Lo: 12, SegLen: 1, Stride: 1, Count: 1}, 12, false},
	}
	for i, c := range cases {
		err := c.p.validate(c.size)
		if (err == nil) != c.ok {
			t.Errorf("case %d: validate(%+v, %d) = %v, want ok=%v", i, c.p, c.size, err, c.ok)
		}
	}
}

// TestPlanFullAndCells pins the Full/Cells helpers.
func TestPlanFullAndCells(t *testing.T) {
	if !(Plan{}).Full(7) {
		t.Error("zero plan is not Full")
	}
	if !(Plan{Lo: 0, SegLen: 7, Stride: 7, Count: 1}).Full(7) {
		t.Error("explicit whole-field plan is not Full")
	}
	if (Plan{Lo: 0, SegLen: 7, Stride: 7, Count: 1}).Full(8) {
		t.Error("7-cell plan reported Full for size 8")
	}
	if (Plan{Lo: 0, SegLen: 1, Stride: 4, Count: 3}).Full(12) {
		t.Error("column plan reported Full")
	}
	if got := (Plan{Lo: 1, SegLen: 3, Stride: 4, Count: 5}).Cells(); got != 15 {
		t.Errorf("Cells = %d, want 15", got)
	}
}

// TestSpanStepErrorLeavesFieldIntact pins span-mode error semantics: a
// kernel error aborts the step before any in-place commit, so the field
// still holds the previous generation afterwards (exactly like an
// aborted sweep).
func TestSpanStepErrorLeavesFieldIntact(t *testing.T) {
	const size = 64
	f := NewField(size)
	for i := 0; i < size; i++ {
		f.SetData(i, Value(i))
	}
	before := f.Snapshot(nil)
	m := NewMachine(f, errSpanRule{}, WithWorkers(1))
	if _, err := m.Step(Context{}); err == nil {
		t.Fatal("kernel error not propagated from span mode")
	}
	after := f.Snapshot(nil)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("cell %d changed across an aborted span step: %d -> %d", i, before[i], after[i])
		}
	}
}

// errSpanRule declares a sparse plan (so span mode engages) whose kernel
// writes one segment and then fails on the second.
type errSpanRule struct{}

func (errSpanRule) Pointer(Context, int, Cell) int           { return NoRead }
func (errSpanRule) Update(_ Context, _ int, s, _ Cell) Value { return s.D }
func (errSpanRule) PlanFor(Context) Plan {
	return Plan{Lo: 0, SegLen: 1, Stride: 16, Count: 4}
}
func (errSpanRule) KernelFor(Context) Kernel {
	return func(lo, hi int, cur, next, _ []Value) (int, int, error) {
		if lo >= 16 {
			return 0, 0, fmt.Errorf("injected kernel failure at %d", lo)
		}
		for i := lo; i < hi; i++ {
			next[i] = cur[i] + 1000
		}
		return hi - lo, 0, nil
	}
}

// TestPrologueRunsOncePerKernelStep pins the KernelPrologue contract:
// the machine calls Prologue once per kernel-path step, before any shard
// reads what it gathered, and never on the generic path.
func TestPrologueRunsOncePerKernelStep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		f := NewField(4 * minChunk)
		f.SetData(0, 7)
		r := &gatherRule{}
		m := NewMachine(f, r, WithWorkers(workers))
		for step := 1; step <= 3; step++ {
			if _, err := m.Step(Context{}); err != nil {
				t.Fatal(err)
			}
			if r.calls != step {
				t.Fatalf("workers=%d: %d prologue calls after %d steps", workers, r.calls, step)
			}
			for i := 0; i < f.Len(); i++ {
				if got := f.Data(i); got != Value(7+step) {
					t.Fatalf("workers=%d step %d: cell %d is %d, want %d", workers, step, i, got, 7+step)
				}
			}
		}
	}

	r := &gatherRule{}
	m := NewMachine(NewField(64), r, WithCongestion())
	if _, err := m.Step(Context{}); err != nil {
		t.Fatal(err)
	}
	if r.calls != 0 {
		t.Fatalf("generic-path step called the prologue %d times", r.calls)
	}
}

// gatherRule's prologue gathers cell 0, and its kernel writes that value
// plus one into every cell.
type gatherRule struct {
	first Value
	calls int
}

func (*gatherRule) Pointer(Context, int, Cell) int           { return NoRead }
func (*gatherRule) Update(_ Context, _ int, s, _ Cell) Value { return s.D }
func (r *gatherRule) Prologue(_ Context, cur []Value) {
	r.first = cur[0]
	r.calls++
}
func (r *gatherRule) KernelFor(Context) Kernel {
	return func(lo, hi int, _, next, _ []Value) (int, int, error) {
		for i := lo; i < hi; i++ {
			next[i] = r.first + 1
		}
		return hi - lo, 0, nil
	}
}
