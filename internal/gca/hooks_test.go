package gca

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBeforeStepAbortLeavesMachineConsistent is the hook contract the
// fault injector depends on: an error from BeforeStep aborts the step
// before any cell is read — the field still holds the previous
// generation, the tick does not advance, and the machine keeps working
// afterwards.
func TestBeforeStepAbortLeavesMachineConsistent(t *testing.T) {
	boom := errors.New("injected")
	fail := true
	f := newFieldWithData([]Value{0, 10, 20})
	m := NewMachine(f, incrementRule, WithWorkers(1), WithStepHooks(StepHooks{
		BeforeStep: func(Context) error {
			if fail {
				return boom
			}
			return nil
		},
	}))

	if _, err := m.Step(Context{}); !errors.Is(err, boom) {
		t.Fatalf("Step error = %v, want %v", err, boom)
	}
	if m.Tick() != 0 {
		t.Fatalf("tick advanced to %d on an aborted step", m.Tick())
	}
	for i, want := range []Value{0, 10, 20} {
		if got := f.Data(i); got != want {
			t.Fatalf("cell %d = %d after aborted step, want %d", i, got, want)
		}
	}

	fail = false
	if _, err := m.Step(Context{}); err != nil {
		t.Fatalf("Step after aborted step: %v", err)
	}
	if m.Tick() != 1 {
		t.Fatalf("tick = %d after recovery step, want 1", m.Tick())
	}
	for i, want := range []Value{1, 11, 21} {
		if got := f.Data(i); got != want {
			t.Fatalf("cell %d = %d after recovery step, want %d", i, got, want)
		}
	}
}

// TestBeforeStepSeesTick checks the hook receives the machine's context
// with the tick filled in — the injector's decision streams index on it.
func TestBeforeStepSeesTick(t *testing.T) {
	var ticks []int64
	f := newFieldWithData([]Value{0, 0})
	m := NewMachine(f, incrementRule, WithWorkers(1), WithStepHooks(StepHooks{
		BeforeStep: func(ctx Context) error {
			ticks = append(ticks, ctx.Tick)
			return nil
		},
	}))
	for i := 0; i < 3; i++ {
		if _, err := m.Step(Context{Generation: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tick := range ticks {
		if tick != int64(i) {
			t.Fatalf("hook %d saw tick %d, want %d", i, tick, i)
		}
	}
}

// TestWorkerStallNeverChangesResults stalls shards in an arbitrary
// pattern and checks the field history is bit-identical to an unstalled
// run at every worker count — stalls may delay the barrier, never the
// answer. The field is large enough (≥ 2·minChunk) to shard for real.
func TestWorkerStallNeverChangesResults(t *testing.T) {
	n := 4 * minChunk
	data := make([]Value, n)
	for i := range data {
		data[i] = Value((i * 7) % n)
	}
	run := func(workers int, stall func(Context, int)) []Value {
		f := newFieldWithData(data)
		var opts []Option
		opts = append(opts, WithWorkers(workers))
		if stall != nil {
			opts = append(opts, WithStepHooks(StepHooks{WorkerStall: stall}))
		}
		m := NewMachine(f, jumpRule, opts...)
		for s := 0; s < 5; s++ {
			if _, err := m.Step(Context{}); err != nil {
				t.Fatal(err)
			}
		}
		return f.Snapshot(nil)
	}

	want := run(1, nil)
	var stalled atomic.Int64
	var mu sync.Mutex
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, 4, 8} {
		got := run(workers, func(ctx Context, worker int) {
			stalled.Add(1)
			mu.Lock()
			seen[worker] = true
			mu.Unlock()
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d = %d with stalls, want %d", workers, i, got[i], want[i])
			}
		}
	}
	if stalled.Load() == 0 {
		t.Fatal("stall hook never ran")
	}
	if !seen[0] {
		t.Error("stall hook never saw shard 0 (the caller's shard)")
	}
	if len(seen) < 2 {
		t.Errorf("stall hook saw %d distinct workers, want ≥ 2 on a sharded field", len(seen))
	}
}

// TestZeroHooksAreNoop checks attaching the zero StepHooks changes
// nothing — the disabled path the production configuration takes.
func TestZeroHooksAreNoop(t *testing.T) {
	f := newFieldWithData([]Value{1, 2, 3})
	m := NewMachine(f, incrementRule, WithWorkers(1), WithStepHooks(StepHooks{}))
	if _, err := m.Step(Context{}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Value{2, 3, 4} {
		if got := f.Data(i); got != want {
			t.Fatalf("cell %d = %d, want %d", i, got, want)
		}
	}
}

// TestBeforeStepErrorTextNamesGeneration pins the error surface: a
// failing hook's error is returned verbatim (wrapped by callers, not by
// the machine).
func TestBeforeStepErrorTextNamesGeneration(t *testing.T) {
	f := newFieldWithData([]Value{0})
	m := NewMachine(f, incrementRule, WithWorkers(1), WithStepHooks(StepHooks{
		BeforeStep: func(ctx Context) error {
			return fmt.Errorf("gen %d", ctx.Generation)
		},
	}))
	_, err := m.Step(Context{Generation: 7})
	if err == nil || err.Error() != "gen 7" {
		t.Fatalf("err = %v, want gen 7 verbatim", err)
	}
}
