package stream

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"gcacc"
	"gcacc/internal/sparse"
)

// checkLiveIndex asserts the live list and its position index agree.
func checkLiveIndex(t *testing.T, st *State, live map[sparse.Edge]struct{}) {
	t.Helper()
	if len(st.edges) != len(live) || len(st.pos) != len(live) {
		t.Fatalf("live list %d, index %d, want %d edges", len(st.edges), len(st.pos), len(live))
	}
	for i, e := range st.edges {
		if _, ok := live[e]; !ok {
			t.Fatalf("edges[%d] = %v is not live", i, e)
		}
		if j, ok := st.pos[edgeKey(e)]; !ok || int(j) != i {
			t.Fatalf("index maps %v to %d (present %v), want %d", e, j, ok, i)
		}
	}
}

// TestRecomputeKeepsLiveListIntact is the regression test for the
// borrowed recompute input: an engine that reordered the lent list (the
// GCA engine densifies it, the sparse engines canonicalise on demand)
// would leave the position index stale, so a later delete of a non-last
// edge would remove the wrong edge or index past the end.
func TestRecomputeKeepsLiveListIntact(t *testing.T) {
	ctx := context.Background()
	const n = 64
	for _, engine := range []gcacc.Engine{gcacc.EngineGCA, gcacc.EngineSequential, gcacc.EngineLiuTarjan, gcacc.EngineLogDiameter} {
		t.Run(engine.String(), func(t *testing.T) {
			st, err := NewState(n, Config{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			live := map[sparse.Edge]struct{}{}
			var batch []sparse.Edge
			// Descending order, so any sort would move every edge.
			for u := n - 2; u >= 0; u-- {
				e := sparse.Edge{U: int32(u), V: int32(u + 1 + rng.Intn(n-1-u))}
				batch = append(batch, e)
				live[e] = struct{}{}
			}
			if _, err := st.Append(ctx, batch, NoEpoch); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				if err := st.Recompute(ctx); err != nil {
					t.Fatal(err)
				}
				victim := st.edges[rng.Intn(len(st.edges)-1)] // never the last
				if _, err := st.Delete(ctx, []sparse.Edge{victim}, NoEpoch); err != nil {
					t.Fatal(err)
				}
				delete(live, victim)
				snap, err := st.Components(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracleLabels(n, live); !reflect.DeepEqual(snap.Labels, want) {
					t.Fatalf("round %d: labels = %v, oracle %v", round, snap.Labels, want)
				}
				if got := st.Info().Edges; got != len(live) {
					t.Fatalf("round %d: Info().Edges = %d, want %d", round, got, len(live))
				}
				checkLiveIndex(t, st, live)
			}
		})
	}
}

// TestComponentsWithoutLabels: a label-free query skips the labelling
// but not the recompute a dirty graph needs.
func TestComponentsWithoutLabels(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry(RegistryConfig{})
	if _, err := r.Create("g", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(ctx, "g", []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Components(ctx, "g", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Labels != nil || snap.Components != 3 || snap.Recomputed {
		t.Fatalf("clean label-free snapshot = %+v", snap)
	}
	if _, err := r.Delete(ctx, "g", []sparse.Edge{{U: 1, V: 2}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	snap, err = r.Components(ctx, "g", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Labels != nil || snap.Components != 4 || !snap.Recomputed {
		t.Fatalf("dirty label-free snapshot = %+v", snap)
	}
	snap, err = r.Components(ctx, "g", true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 2, 3, 3, 5}; snap.Recomputed || !reflect.DeepEqual(snap.Labels, want) {
		t.Fatalf("labelled snapshot = %+v, want labels %v without a recompute", snap, want)
	}
}

// TestRecomputeAllocs pins a recompute to the engine's own allocations:
// the live list is the engine's input as is, so rebuilding a graph from
// it through AddEdge and a sort would take over 40 allocations. The
// engine alone makes 10 at this size; the stream layer must add none.
func TestRecomputeAllocs(t *testing.T) {
	const n = 100_000
	ctx := context.Background()
	st, err := NewState(n, Config{Engine: gcacc.EngineLiuTarjan})
	if err != nil {
		t.Fatal(err)
	}
	edges := benchEdges(n, 2*n)
	if _, err := st.Append(ctx, edges, NoEpoch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete(ctx, edges[:1], NoEpoch); err != nil {
		t.Fatal(err)
	}
	engine := testing.AllocsPerRun(3, func() {
		if _, err := gcacc.ConnectedComponentsSparse(ctx, sparse.Borrow(n, st.edges), gcacc.Options{Engine: gcacc.EngineLiuTarjan}); err != nil {
			t.Fatal(err)
		}
	})
	recompute := testing.AllocsPerRun(3, func() {
		if err := st.Recompute(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if recompute > engine || recompute > 12 {
		t.Fatalf("recompute makes %.0f allocations, the engine alone %.0f; want no more than the engine and at most 12",
			recompute, engine)
	}
}
