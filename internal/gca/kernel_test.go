package gca

import (
	"errors"
	"testing"
)

// TestPrologueRunsOncePerKernelStep pins the KernelPrologue contract:
// the machine calls Prologue once per kernel-path step, before any shard
// reads what it gathered, and never on the generic path. A Prologue error
// aborts the step before any shard runs: the field keeps the previous
// generation and the tick does not advance.
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

		r.fail = errors.New("injected prologue failure")
		if _, err := m.Step(Context{}); !errors.Is(err, r.fail) {
			t.Fatalf("workers=%d: Step error = %v, want the prologue's", workers, err)
		}
		if m.Tick() != 3 {
			t.Fatalf("workers=%d: tick is %d after an aborted step, want 3", workers, m.Tick())
		}
		for i := 0; i < f.Len(); i++ {
			if got := f.Data(i); got != 10 {
				t.Fatalf("workers=%d: cell %d is %d after an aborted step, want 10", workers, i, got)
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

// gatherRule's prologue gathers cell 0, or fails with fail, and its
// kernel writes the gathered value plus one into every cell.
type gatherRule struct {
	first Value
	calls int
	fail  error
}

func (*gatherRule) Pointer(Context, int, Cell) int           { return NoRead }
func (*gatherRule) Update(_ Context, _ int, s, _ Cell) Value { return s.D }
func (r *gatherRule) Prologue(_ Context, cur []Value) error {
	if r.fail != nil {
		return r.fail
	}
	r.first = cur[0]
	r.calls++
	return nil
}
func (r *gatherRule) KernelFor(Context) Kernel {
	return func(lo, hi int, _, next, _ []Value) (int, int, error) {
		for i := lo; i < hi; i++ {
			next[i] = r.first + 1
		}
		return hi - lo, 0, nil
	}
}
