package par_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"gcacc/internal/fault"
	"gcacc/internal/gca"
	"gcacc/internal/par"
	"gcacc/internal/sparse"
)

// countJob records how often each shard ran.
type countJob struct{ runs []int }

func (j *countJob) RunShard(s int) { j.runs[s]++ }

// TestRunEveryShardOnce pins the barrier: Run returns only after every
// shard ran, and each exactly once, for shard counts around the pool's
// queue size.
func TestRunEveryShardOnce(t *testing.T) {
	var g par.Group
	for _, shards := range []int{0, 1, 2, 3, 8, 33, 200} {
		j := &countJob{runs: make([]int, shards)}
		for rep := 0; rep < 3; rep++ {
			g.Run(j, shards)
		}
		for s, n := range j.runs {
			if n != 3 {
				t.Fatalf("shards=%d: shard %d ran %d times over 3 steps", shards, s, n)
			}
		}
	}
}

// stallHooks stalls every shard of every step for d: the injected
// WorkerStall holds whichever goroutine evaluates the shard, pool
// workers included.
func stallHooks(d time.Duration) gca.StepHooks {
	return fault.New(fault.Config{Seed: 1, StallP: 1, Stall: d}).GCAHooks(context.Background())
}

// gcaRule mixes local and global state so a lost or duplicated shard
// shows up in the final field.
func gcaRule(n int) gca.Rule {
	return gca.RuleFuncs{
		PointerFunc: func(ctx gca.Context, idx int, _ gca.Cell) int {
			return (idx*31 + int(ctx.Tick)*7 + 5) % n
		},
		UpdateFunc: func(_ gca.Context, idx int, self, global gca.Cell) gca.Value {
			return (self.D*131 + global.D*31 + gca.Value(idx)) % 1000003
		},
	}
}

func runGCA(t *testing.T, hooks gca.StepHooks) []gca.Value {
	const n, steps = 8192, 12
	f := gca.NewField(n)
	for i := 0; i < n; i++ {
		f.SetData(i, gca.Value(i*i%977))
	}
	m := gca.NewMachine(f, gcaRule(n), gca.WithWorkers(8), gca.WithStepHooks(hooks))
	for s := 0; s < steps; s++ {
		if _, err := m.Step(gca.Context{Generation: s}); err != nil {
			t.Error(err)
			return nil
		}
	}
	return f.Snapshot(nil)
}

func runLiuTarjan(t *testing.T, g *sparse.Graph, hooks gca.StepHooks) sparse.Result {
	res, err := sparse.LiuTarjan(g, sparse.Options{Workers: 8, Variant: sparse.DefaultVariant, Hooks: hooks})
	if err != nil {
		t.Error(err)
	}
	return res
}

// TestCrossEngineStallSafety runs a Liu–Tarjan run and a gca.Machine at
// the same time on the one pool, with a WorkerStall fault holding the
// pool's workers inside one of them. Neither engine may wedge, and both
// must produce exactly what their unfaulted runs produce.
func TestCrossEngineStallSafety(t *testing.T) {
	g := sparse.RandomEdges(20000, 40000, rand.New(rand.NewSource(4)))
	wantGCA := runGCA(t, gca.StepHooks{})
	wantLT := runLiuTarjan(t, g, gca.StepHooks{})

	for _, stalled := range []string{"liutarjan", "gca"} {
		t.Run(fmt.Sprintf("stall=%s", stalled), func(t *testing.T) {
			ltHooks, gcaHooks := gca.StepHooks{}, gca.StepHooks{}
			if stalled == "liutarjan" {
				ltHooks = stallHooks(time.Millisecond)
			} else {
				gcaHooks = stallHooks(time.Millisecond)
			}
			var gotGCA []gca.Value
			var gotLT sparse.Result
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				gotLT = runLiuTarjan(t, g, ltHooks)
			}()
			go func() {
				defer wg.Done()
				gotGCA = runGCA(t, gcaHooks)
			}()
			wg.Wait()
			if !slices.Equal(gotGCA, wantGCA) {
				t.Error("gca field differs from the unfaulted run")
			}
			if gotLT.Rounds != wantLT.Rounds || !slices.Equal(gotLT.Labels, wantLT.Labels) {
				t.Errorf("liutarjan: %d rounds, labels equal %v; want %d rounds, equal labels",
					gotLT.Rounds, slices.Equal(gotLT.Labels, wantLT.Labels), wantLT.Rounds)
			}
		})
	}
}
