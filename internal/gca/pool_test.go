package gca

import (
	"fmt"
	"runtime"
	"testing"

	"gcacc/internal/par"
)

// poolRule mixes local and global state so any lost or duplicated shard
// shows up in the final snapshot.
func poolRule(n int) Rule {
	return RuleFuncs{
		PointerFunc: func(ctx Context, idx int, _ Cell) int {
			if idx%11 == 3 {
				return NoRead
			}
			return (idx*31 + int(ctx.Tick)*7 + 5) % n
		},
		UpdateFunc: func(_ Context, idx int, self, global Cell) Value {
			return (self.D*131 + global.D*31 + Value(idx)) % 1000003
		},
	}
}

// TestPoolBitIdenticalAcrossWorkerCounts hammers the persistent worker
// pool: for every worker count from 1 up to (at least) GOMAXPROCS the
// field snapshot and per-step stats must be bit-identical to the
// single-worker run. The field is large enough to engage the parallel
// path, and the test is the designated -race workload for the pool's
// barrier handshake.
func TestPoolBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 4 * minChunk // comfortably above the sharding threshold
	const steps = 25

	type stepStat struct{ active, reads int }
	run := func(workers int) ([]Value, []stepStat) {
		f := NewField(n)
		for i := 0; i < n; i++ {
			f.SetData(i, Value(i*i%977))
		}
		m := NewMachine(f, poolRule(n), WithWorkers(workers))
		stats := make([]stepStat, 0, steps)
		for s := 0; s < steps; s++ {
			st, err := m.Step(Context{Generation: s})
			if err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, s, err)
			}
			stats = append(stats, stepStat{st.Active, st.TotalReads})
		}
		return f.Snapshot(nil), stats
	}

	counts := map[int]bool{1: true, 2: true, 3: true, 5: true, 8: true}
	for w := 1; w <= runtime.GOMAXPROCS(0); w++ {
		counts[w] = true
	}
	wantField, wantStats := run(1)
	for w := range counts {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			gotField, gotStats := run(w)
			for i := range wantField {
				if gotField[i] != wantField[i] {
					t.Fatalf("cell %d = %d, want %d", i, gotField[i], wantField[i])
				}
			}
			for s := range wantStats {
				if gotStats[s] != wantStats[s] {
					t.Fatalf("step %d stats = %+v, want %+v", s, gotStats[s], wantStats[s])
				}
			}
		})
	}
}

// TestPoolChurn creates and steps many pooled machines in sequence;
// under -race this shakes out any handshake left behind by Step's
// barrier, and under normal runs it bounds goroutine growth:
// machines own no goroutines, so after the shared pool is warm the count
// must stay flat no matter how many machines come and go.
func TestPoolChurn(t *testing.T) {
	par.Warm() // the shared pool is process-lifetime; start it before the baseline
	before := runtime.NumGoroutine()
	for r := 0; r < 40; r++ {
		f := NewField(2 * minChunk)
		m := NewMachine(f, poolRule(f.Len()), WithWorkers(1+r%6))
		for s := 0; s < 3; s++ {
			if _, err := m.Step(Context{Generation: s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Give any in-flight pool hand-offs a moment to settle, then require
	// no pile-up.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines grew from %d to %d; pool leak", before, g)
	}
}

// TestPoolCongestionAcrossWorkerCounts repeats the bit-identical check
// with congestion instrumentation on, which exercises the per-worker read
// buffers and their merge.
func TestPoolCongestionAcrossWorkerCounts(t *testing.T) {
	const n = 3 * minChunk
	run := func(workers int) (map[int]int, int) {
		f := NewField(n)
		m := NewMachine(f, poolRule(n), WithWorkers(workers), WithCongestion())
		var last *StepStats
		for s := 0; s < 4; s++ {
			st, err := m.Step(Context{Generation: s})
			if err != nil {
				t.Fatal(err)
			}
			last = st
		}
		return last.CongestionHistogram(), last.MaxCongestion
	}
	wantH, wantMax := run(1)
	for _, w := range []int{2, 4, 7} {
		gotH, gotMax := run(w)
		if gotMax != wantMax || len(gotH) != len(wantH) {
			t.Fatalf("workers=%d: histogram %v max %d, want %v max %d", w, gotH, gotMax, wantH, wantMax)
		}
		for k, v := range wantH {
			if gotH[k] != v {
				t.Fatalf("workers=%d: δ=%d count %d, want %d", w, k, gotH[k], v)
			}
		}
	}
}
