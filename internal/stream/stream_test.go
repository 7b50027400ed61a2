package stream

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/sparse"
)

func mustState(t *testing.T, n int, cfg Config) *State {
	t.Helper()
	if cfg.Engine == gcacc.EngineGCA {
		cfg.Engine = gcacc.EngineLiuTarjan
	}
	st, err := NewState(n, cfg)
	if err != nil {
		t.Fatalf("NewState(%d): %v", n, err)
	}
	return st
}

// oracleLabels recomputes the labelling of a live edge set from scratch.
func oracleLabels(n int, live map[sparse.Edge]struct{}) []int {
	g := sparse.New(n)
	for e := range live {
		g.AddEdge(int(e.U), int(e.V))
	}
	return sparse.ConnectedComponentsUnionFind(g)
}

func TestStateAppendQuery(t *testing.T) {
	ctx := context.Background()
	st := mustState(t, 8, Config{})
	m, err := st.Append(ctx, []sparse.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 0}}, NoEpoch)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if m.Epoch != 1 || m.Applied != 2 || m.Ignored != 1 || m.Dirty {
		t.Fatalf("mutation = %+v", m)
	}
	snap, err := st.Components(ctx)
	if err != nil {
		t.Fatalf("components: %v", err)
	}
	if snap.Epoch != 1 || snap.Components != 6 || snap.Recomputed || snap.Engine != "unionfind" {
		t.Fatalf("snapshot = %+v", snap)
	}
	want := []int{0, 0, 2, 2, 4, 5, 6, 7}
	if !reflect.DeepEqual(snap.Labels, want) {
		t.Fatalf("labels = %v, want %v", snap.Labels, want)
	}
}

func TestStateEpochPrecondition(t *testing.T) {
	ctx := context.Background()
	st := mustState(t, 4, Config{})
	if _, err := st.Append(ctx, []sparse.Edge{{U: 0, V: 1}}, 0); err != nil {
		t.Fatalf("append at expected epoch 0: %v", err)
	}
	_, err := st.Append(ctx, []sparse.Edge{{U: 1, V: 2}}, 0)
	if !errors.Is(err, ErrEpochConflict) {
		t.Fatalf("stale epoch accepted: %v", err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("failed batch advanced the epoch to %d", st.Epoch())
	}
	if _, err := st.Append(ctx, []sparse.Edge{{U: 1, V: 2}}, 1); err != nil {
		t.Fatalf("append at current epoch: %v", err)
	}
}

func TestStateInvalidBatchAtomic(t *testing.T) {
	ctx := context.Background()
	st := mustState(t, 4, Config{})
	for _, batch := range [][]sparse.Edge{
		{{U: 0, V: 1}, {U: 2, V: 2}},  // self-loop
		{{U: 0, V: 1}, {U: 0, V: 4}},  // out of range
		{{U: 0, V: 1}, {U: -1, V: 2}}, // negative
	} {
		if _, err := st.Append(ctx, batch, NoEpoch); !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("batch %v: err = %v, want ErrInvalidEdge", batch, err)
		}
	}
	if st.Epoch() != 0 {
		t.Fatalf("rejected batches advanced the epoch to %d", st.Epoch())
	}
	snap, err := st.Components(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Components != 4 {
		t.Fatalf("rejected batches changed the graph: %+v", snap)
	}
}

func TestStateDeleteForcesRecompute(t *testing.T) {
	ctx := context.Background()
	st := mustState(t, 6, Config{})
	// Path 0-1-2-3 plus isolated 4,5.
	if _, err := st.Append(ctx, []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	m, err := st.Delete(ctx, []sparse.Edge{{U: 1, V: 2}, {U: 4, V: 5}}, NoEpoch)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if m.Applied != 1 || m.Ignored != 1 || !m.Dirty {
		t.Fatalf("delete mutation = %+v", m)
	}
	info := st.Info()
	if !info.Dirty || info.DirtyComponents != 1 || info.Edges != 2 {
		t.Fatalf("info after delete = %+v", info)
	}
	snap, err := st.Components(ctx)
	if err != nil {
		t.Fatalf("components after delete: %v", err)
	}
	if !snap.Recomputed || snap.Engine != "liutarjan" {
		t.Fatalf("query after delete did not recompute: %+v", snap)
	}
	want := []int{0, 0, 2, 2, 4, 5}
	if !reflect.DeepEqual(snap.Labels, want) {
		t.Fatalf("labels after recompute = %v, want %v", snap.Labels, want)
	}
	if st.Info().Dirty {
		t.Fatal("state still dirty after recompute")
	}
	// The recompute is coalesced: a second query answers incrementally.
	snap2, err := st.Components(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Recomputed {
		t.Fatal("clean query recomputed again")
	}
	if !reflect.DeepEqual(snap2.Labels, want) {
		t.Fatalf("labels drifted after rebuild: %v", snap2.Labels)
	}
}

func TestStateAppendAfterDeleteStaysConformant(t *testing.T) {
	// Appends landing on a dirty forest must not corrupt the rebuilt
	// answer: the union goes into the stale forest, but dirtiness forces
	// the recompute that settles everything.
	ctx := context.Background()
	st := mustState(t, 6, Config{})
	live := map[sparse.Edge]struct{}{}
	apply := func(kind OpKind, e sparse.Edge) {
		t.Helper()
		var err error
		if kind == OpAppend {
			_, err = st.Append(ctx, []sparse.Edge{e}, NoEpoch)
			live[e] = struct{}{}
		} else {
			_, err = st.Delete(ctx, []sparse.Edge{e}, NoEpoch)
			delete(live, e)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	apply(OpAppend, sparse.Edge{U: 0, V: 1})
	apply(OpAppend, sparse.Edge{U: 1, V: 2})
	apply(OpDelete, sparse.Edge{U: 0, V: 1})
	apply(OpAppend, sparse.Edge{U: 3, V: 4})
	apply(OpAppend, sparse.Edge{U: 2, V: 5})
	snap, err := st.Components(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleLabels(6, live); !reflect.DeepEqual(snap.Labels, want) {
		t.Fatalf("labels = %v, oracle %v", snap.Labels, want)
	}
}

func TestStateRecomputePeriod(t *testing.T) {
	ctx := context.Background()
	st := mustState(t, 8, Config{RecomputePeriod: 2})
	edges := []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	for i, e := range edges {
		if _, err := st.Append(ctx, []sparse.Edge{e}, NoEpoch); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Components(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Batches 2 and 4 hit the period; their queries must recompute.
		wantRecompute := (i+1)%2 == 0
		if snap.Recomputed != wantRecompute {
			t.Fatalf("batch %d: recomputed = %v, want %v", i+1, snap.Recomputed, wantRecompute)
		}
	}
	if got := st.Info().Recomputes; got != 2 {
		t.Fatalf("recomputes = %d, want 2", got)
	}
}

func TestStateMaxEdges(t *testing.T) {
	ctx := context.Background()
	st := mustState(t, 8, Config{MaxEdges: 2})
	if _, err := st.Append(ctx, []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	// Duplicates don't count against the budget...
	if _, err := st.Append(ctx, []sparse.Edge{{U: 0, V: 1}, {U: 2, V: 1}}, NoEpoch); err != nil {
		t.Fatalf("duplicate-only batch rejected: %v", err)
	}
	// ...but a fresh edge over the limit rejects atomically.
	_, err := st.Append(ctx, []sparse.Edge{{U: 3, V: 4}}, NoEpoch)
	if !errors.Is(err, ErrEdgeLimit) {
		t.Fatalf("over-limit append: %v", err)
	}
	if got := st.Info().Edges; got != 2 {
		t.Fatalf("live edges = %d after rejected append", got)
	}
	// Deleting frees budget.
	if _, err := st.Delete(ctx, []sparse.Edge{{U: 0, V: 1}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(ctx, []sparse.Edge{{U: 3, V: 4}}, NoEpoch); err != nil {
		t.Fatalf("append after freeing budget: %v", err)
	}
}

func TestStateGCARecomputeEngine(t *testing.T) {
	// Below the dense cutoff the paper's GCA itself serves as the
	// recompute engine, via the facade's densification path.
	ctx := context.Background()
	st, err := NewState(12, Config{Engine: gcacc.EngineGCA, RecomputePeriod: 1})
	if err != nil {
		t.Fatalf("NewState with GCA engine: %v", err)
	}
	live := map[sparse.Edge]struct{}{}
	for _, e := range []sparse.Edge{{U: 0, V: 11}, {U: 3, V: 7}, {U: 7, V: 11}} {
		if _, err := st.Append(ctx, []sparse.Edge{e}, NoEpoch); err != nil {
			t.Fatal(err)
		}
		live[e] = struct{}{}
		snap, err := st.Components(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Recomputed || snap.Engine != "gca" || snap.Rounds == 0 {
			t.Fatalf("snapshot = %+v, want GCA recompute with rounds", snap)
		}
		if want := oracleLabels(12, live); !reflect.DeepEqual(snap.Labels, want) {
			t.Fatalf("GCA recompute labels = %v, oracle %v", snap.Labels, want)
		}
	}

	if _, err := NewState(gcacc.DenseCutoff+1, Config{Engine: gcacc.EngineGCA}); err == nil {
		t.Fatal("dense engine accepted above the cutoff")
	}
}

func TestStateBatchAbortInjection(t *testing.T) {
	ctx := context.Background()
	inj := fault.New(fault.Config{Seed: 3, BatchErrorP: 1})
	st := mustState(t, 4, Config{Fault: inj})
	_, err := st.Append(ctx, []sparse.Edge{{U: 0, V: 1}}, NoEpoch)
	if !fault.IsTransient(err) {
		t.Fatalf("injected abort = %v, want transient", err)
	}
	if st.Epoch() != 0 || st.Info().Edges != 0 {
		t.Fatal("aborted batch mutated the graph")
	}
	if inj.Counters().BatchAborts == 0 {
		t.Fatal("abort not counted")
	}
}

func TestStateContextCanceled(t *testing.T) {
	st := mustState(t, 4, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := st.Append(ctx, []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete(ctx, []sparse.Edge{{U: 0, V: 1}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := st.Components(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("query on canceled ctx: %v", err)
	}
	// The failed recompute leaves the graph dirty; a fresh context heals.
	if !st.Info().Dirty {
		t.Fatal("canceled recompute cleared dirtiness")
	}
	snap, err := st.Components(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Recomputed || snap.Components != 3 {
		t.Fatalf("recovery query = %+v", snap)
	}
}

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(-1, Config{Engine: gcacc.EngineLiuTarjan}); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := NewState(4, Config{Engine: gcacc.Engine(99)}); err == nil {
		t.Fatal("invalid engine accepted")
	}
	st, err := NewState(0, Config{Engine: gcacc.EngineLiuTarjan})
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	snap, err := st.Components(context.Background())
	if err != nil || snap.Components != 0 || len(snap.Labels) != 0 {
		t.Fatalf("empty graph query = %+v, %v", snap, err)
	}
}

// treeCount counts the live edges whose tree bit is set. While the graph
// is clean they form a spanning forest, so the count is n − components.
func treeCount(st *State) int {
	c := 0
	for _, t := range st.tree {
		if t {
			c++
		}
	}
	return c
}

// mustMutate applies one append or delete batch, failing the test on error.
func mustMutate(t *testing.T, st *State, kind OpKind, edges ...sparse.Edge) Mutation {
	t.Helper()
	var m Mutation
	var err error
	if kind == OpAppend {
		m, err = st.Append(context.Background(), edges, NoEpoch)
	} else {
		m, err = st.Delete(context.Background(), edges, NoEpoch)
	}
	if err != nil {
		t.Fatalf("%s %v: %v", kind, edges, err)
	}
	return m
}

// mustQuery answers one labelled query and checks it against the oracle
// over live and against the tree-bit invariant.
func mustQuery(t *testing.T, st *State, live map[sparse.Edge]struct{}, recomputed bool) *Snapshot {
	t.Helper()
	snap, err := st.Components(context.Background())
	if err != nil {
		t.Fatalf("components: %v", err)
	}
	if snap.Recomputed != recomputed {
		t.Fatalf("query recomputed = %v, want %v", snap.Recomputed, recomputed)
	}
	if want := oracleLabels(st.N(), live); !reflect.DeepEqual(snap.Labels, want) {
		t.Fatalf("labels = %v, oracle %v", snap.Labels, want)
	}
	if got, want := treeCount(st), st.N()-snap.Components; got != want {
		t.Fatalf("%d tree edges on a clean graph with %d components, want n − c = %d", got, snap.Components, want)
	}
	return snap
}

func liveSet(edges ...sparse.Edge) map[sparse.Edge]struct{} {
	live := map[sparse.Edge]struct{}{}
	for _, e := range edges {
		live[e] = struct{}{}
	}
	return live
}

func TestStateDeleteChordStaysClean(t *testing.T) {
	st := mustState(t, 6, Config{})
	// Cycle 0-1-2-3-0 plus the edge 4-5; (0,3) closes the cycle, so it
	// performs no union and is the one non-tree edge.
	cycle := []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}, {U: 4, V: 5}}
	mustMutate(t, st, OpAppend, cycle...)
	chord := sparse.Edge{U: 0, V: 3}
	m := mustMutate(t, st, OpDelete, chord)
	if m.Applied != 1 || m.Dirty {
		t.Fatalf("chord delete = %+v, want applied 1 and clean", m)
	}
	if info := st.Info(); info.Dirty || info.DirtyComponents != 0 || info.Edges != 4 {
		t.Fatalf("info after chord delete = %+v", info)
	}
	live := liveSet(cycle...)
	delete(live, chord)
	snap := mustQuery(t, st, live, false)
	if snap.Engine != "unionfind" || snap.Components != 2 {
		t.Fatalf("snapshot = %+v, want 2 components from union-find", snap)
	}
	if got := st.Info().Recomputes; got != 0 {
		t.Fatalf("recomputes = %d, want 0", got)
	}
}

// TestStateRecomputeRebuildsTreeBits deletes a tree edge e whose
// endpoints stay connected through a non-tree edge f. The recompute must
// promote f to the spanning forest: with stale bits, deleting f next
// would leave the graph clean and report one component too few.
func TestStateRecomputeRebuildsTreeBits(t *testing.T) {
	st := mustState(t, 4, Config{})
	e, f := sparse.Edge{U: 1, V: 2}, sparse.Edge{U: 0, V: 3}
	cycle := []sparse.Edge{{U: 0, V: 1}, e, {U: 2, V: 3}, f}
	mustMutate(t, st, OpAppend, cycle...)
	live := liveSet(cycle...)
	if m := mustMutate(t, st, OpDelete, e); !m.Dirty {
		t.Fatalf("tree-edge delete = %+v, want dirty", m)
	}
	delete(live, e)
	mustQuery(t, st, live, true)
	if m := mustMutate(t, st, OpDelete, f); !m.Dirty {
		t.Fatalf("delete of the promoted edge = %+v, want dirty", m)
	}
	delete(live, f)
	if snap := mustQuery(t, st, live, true); snap.Components != 2 {
		t.Fatalf("components = %d after cutting the cycle twice, want 2", snap.Components)
	}
}

// TestStateAppendWhileDirtyGetsTreeBit: an edge re-appended while the
// graph is dirty unions into the stale forest, which still joins its
// endpoints, so its bit is wrong until the recompute rebuilds it.
func TestStateAppendWhileDirtyGetsTreeBit(t *testing.T) {
	st := mustState(t, 4, Config{})
	a, b := sparse.Edge{U: 0, V: 1}, sparse.Edge{U: 2, V: 3}
	mustMutate(t, st, OpAppend, a, b)
	mustMutate(t, st, OpDelete, a)
	if m := mustMutate(t, st, OpAppend, a); !m.Dirty {
		t.Fatalf("append on a dirty graph = %+v, want still dirty", m)
	}
	live := liveSet(a, b)
	mustQuery(t, st, live, true)
	if !st.tree[st.pos[edgeKey(a)]] {
		t.Fatal("re-appended bridge has no tree bit after the recompute")
	}
	if m := mustMutate(t, st, OpDelete, a); !m.Dirty {
		t.Fatalf("bridge delete = %+v, want dirty", m)
	}
	delete(live, a)
	if snap := mustQuery(t, st, live, true); snap.Components != 3 {
		t.Fatalf("components = %d, want 3", snap.Components)
	}
}

// TestStateFailedRecomputeStaysDirty: a recompute that fails — an
// injected engine fault, or a labelling the union-find pass contradicts
// — leaves the graph dirty, and a later query still answers correctly.
func TestStateFailedRecomputeStaysDirty(t *testing.T) {
	st := mustState(t, 5, Config{Fault: fault.New(fault.Config{Seed: 1, StepErrorP: 1})})
	path := []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	mustMutate(t, st, OpAppend, path...)
	mustMutate(t, st, OpDelete, path[1])
	if _, err := st.Components(context.Background()); !fault.IsTransient(err) {
		t.Fatalf("query under step faults = %v, want a transient error", err)
	}
	if info := st.Info(); !info.Dirty || info.DirtyComponents != 1 || info.Recomputes != 0 {
		t.Fatalf("info after a failed recompute = %+v, want dirty and no recompute counted", info)
	}

	// The forest the pass rebuilt rejects a labelling that disagrees
	// with it.
	st.mu.Lock()
	err := st.checkLabelsLocked([]int{0, 0, 0, 0, 4})
	st.mu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "labels vertex 2 as 0, union-find as 2") {
		t.Fatalf("wrong labelling: err = %v", err)
	}
	if !st.Info().Dirty {
		t.Fatal("a rejected labelling cleared dirtiness")
	}

	st.cfg.Fault = nil
	live := liveSet(path[0], path[2])
	mustQuery(t, st, live, true)
	if info := st.Info(); info.Dirty || info.Recomputes != 1 {
		t.Fatalf("info after recovery = %+v", info)
	}
}
