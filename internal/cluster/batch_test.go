package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

func TestBatchAdmission(t *testing.T) {
	top := testTopology(t, 1, ModeProxy)
	n := top.Nodes[0]

	if _, err := n.SubmitBatch(context.Background(), nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: %v, want ErrEmptyBatch", err)
	}

	big := make([]BatchItem, n.Config().MaxBatchItems+1)
	for i := range big {
		big[i] = BatchItem{Graph: sp(graph.Path(2))}
	}
	if _, err := n.SubmitBatch(context.Background(), big); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v, want ErrBatchTooLarge", err)
	}

	n.Stop()
	if _, err := n.SubmitBatch(context.Background(), []BatchItem{{Graph: sp(graph.Path(2))}}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("batch on stopped node: %v, want ErrNodeDown", err)
	}
	n.Start()

	if s := n.Stats(); s.BatchRejected != 2 {
		t.Fatalf("batch_rejected = %d, want 2", s.BatchRejected)
	}
}

func TestBatchBusy(t *testing.T) {
	top := testTopology(t, 1, ModeProxy)
	n := top.Nodes[0]
	// Occupy every admission ticket, then a new batch must shed.
	for i := 0; i < n.Config().BatchTickets; i++ {
		n.batchGate <- struct{}{}
	}
	if _, err := n.SubmitBatch(context.Background(), []BatchItem{{Graph: sp(graph.Path(2))}}); !errors.Is(err, ErrBatchBusy) {
		t.Fatalf("no free ticket: %v, want ErrBatchBusy", err)
	}
	for i := 0; i < n.Config().BatchTickets; i++ {
		<-n.batchGate
	}
	if _, err := n.SubmitBatch(context.Background(), []BatchItem{{Graph: sp(graph.Path(2))}}); err != nil {
		t.Fatalf("after ticket release: %v", err)
	}
}

func TestBatchMixedOutcomes(t *testing.T) {
	// A graph above the dense cutoff on the dense-only gca engine must
	// answer 422 without touching its siblings.
	top := testTopology(t, 1, ModeProxy)
	big := sparse.New(gcacc.DenseCutoff + 1)
	big.AddEdge(0, gcacc.DenseCutoff)

	preErr := &StatusError{Code: 400, Msg: "unparseable item"}
	items := []BatchItem{
		{Graph: sp(graph.Path(6))},            // fine
		{Graph: big, Engine: gcacc.EngineGCA}, // dense-only → 422
		{Err: preErr},                         // pre-admission → 400
		{Graph: nil},                          // nil graph → 400
		{Graph: sp(graph.Star(7)), Engine: gcacc.EngineLiuTarjan}, // sparse engine, fine
	}
	outs, err := top.Nodes[0].SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	wantStatus := []int{200, 422, 400, 400, 200}
	for i, oc := range outs {
		if got := StatusOf(oc.Err); got != wantStatus[i] {
			t.Errorf("item %d status = %d (err %v), want %d", i, got, oc.Err, wantStatus[i])
		}
	}
	if !labelsEq(outs[0].Result.Labels, wantLabels(graph.Path(6))) {
		t.Fatal("item 0 labels wrong")
	}
	if !labelsEq(outs[4].Result.Labels, wantLabels(graph.Star(7))) {
		t.Fatal("item 4 labels wrong")
	}
	if !errors.Is(outs[2].Err, preErr) {
		t.Fatalf("item 2 error = %v, want the pre-admission error", outs[2].Err)
	}
}

func TestBatchDuplicatesCoalesce(t *testing.T) {
	top := testTopology(t, 1, ModeProxy)
	g := graph.Grid(4, 5)
	items := []BatchItem{
		{Graph: sp(g)},
		{Graph: sp(graph.Path(3))},
		{Graph: sp(g)}, // duplicate of item 0
		{Graph: sp(g)}, // duplicate of item 0
	}
	outs, err := top.Nodes[0].SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	want := wantLabels(g)
	for _, i := range []int{0, 2, 3} {
		if outs[i].Err != nil || !labelsEq(outs[i].Result.Labels, want) {
			t.Fatalf("item %d = %+v, want labels %v", i, outs[i], want)
		}
	}
	if !outs[2].Result.Coalesced || !outs[3].Result.Coalesced {
		t.Fatal("duplicate items should report coalesced")
	}
	if outs[0].Result.Cached || outs[0].Result.Coalesced {
		t.Fatal("primary item should be a fresh compute")
	}
	s := top.Nodes[0].Stats()
	if s.BatchDedup != 2 {
		t.Fatalf("batch_dedup = %d, want 2", s.BatchDedup)
	}
	// One compute for the triplicate, one for the singleton.
	if svc := top.Nodes[0].Service().Stats(); svc.Completed != 2 {
		t.Fatalf("completed jobs = %d, want 2", svc.Completed)
	}

	// Duplicate labels must be caller-owned copies, not aliases.
	outs[2].Result.Labels[0] = -1
	if outs[0].Result.Labels[0] == -1 || outs[3].Result.Labels[0] == -1 {
		t.Fatal("duplicate outcomes alias the primary's label slice")
	}
}

func TestBatchPerItemTimeout(t *testing.T) {
	top := testTopology(t, 1, ModeProxy)
	// A deadline that has effectively already passed: the item expires
	// alone (504) while its siblings complete.
	items := []BatchItem{
		{Graph: sp(graph.Path(4))},
		{Graph: sp(graph.Path(64)), Timeout: time.Nanosecond, NoCache: true},
		{Graph: sp(graph.Star(5))},
	}
	outs, err := top.Nodes[0].SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if got := StatusOf(outs[1].Err); got != 504 {
		t.Fatalf("timed-out item status = %d (err %v), want 504", got, outs[1].Err)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Fatalf("sibling %d failed: %v", i, outs[i].Err)
		}
		if !labelsEq(outs[i].Result.Labels, sparse.ConnectedComponentsUnionFind(items[i].Graph)) {
			t.Fatalf("sibling %d labels wrong", i)
		}
	}
}

func TestBatchCancelledContext(t *testing.T) {
	top := testTopology(t, 1, ModeProxy)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := top.Nodes[0].SubmitBatch(ctx, []BatchItem{{Graph: sp(graph.Path(4)), NoCache: true}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if got := StatusOf(outs[0].Err); got != 499 {
		t.Fatalf("cancelled item status = %d (err %v), want 499", got, outs[0].Err)
	}
}

func TestBatchOwnerSplit(t *testing.T) {
	top := testTopology(t, 4, ModeProxy)
	entry := top.Nodes[0]
	var items []BatchItem
	for n := 2; n < 26; n++ {
		items = append(items, BatchItem{Graph: sp(graph.Path(n))})
	}
	outs, err := entry.SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	remote := 0
	for i, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("item %d: %v", i, oc.Err)
		}
		wantOwner := entry.Owner(items[i].Graph.Fingerprint())
		if oc.Result.Owner != wantOwner {
			t.Fatalf("item %d owner = %d, want %d", i, oc.Result.Owner, wantOwner)
		}
		if wantOwner != entry.Self() {
			if !oc.Result.Proxied || oc.Result.Served != wantOwner {
				t.Fatalf("item %d should have been computed at its owner: %+v", i, oc.Result)
			}
			remote++
		}
		if !labelsEq(oc.Result.Labels, sparse.ConnectedComponentsUnionFind(items[i].Graph)) {
			t.Fatalf("item %d labels wrong", i)
		}
	}
	if remote == 0 {
		t.Fatal("expected at least one remotely-owned item across 24 graphs on 4 replicas")
	}
	s := entry.Stats()
	if s.Batches != 1 || s.BatchItems != int64(len(items)) {
		t.Fatalf("entry stats = %+v", s)
	}
	// Each remote owner served exactly one sub-batch.
	subBatches := int64(0)
	for _, n := range top.Nodes[1:] {
		subBatches += n.Stats().PeerBatches
	}
	if subBatches == 0 || subBatches > 3 {
		t.Fatalf("peer sub-batches = %d, want 1..3", subBatches)
	}
}

func TestBatchPeerFallback(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	entry := top.Nodes[0]
	g := graphOwnedBy(t, top, 1)
	top.Nodes[1].Stop()
	outs, err := entry.SubmitBatch(context.Background(), []BatchItem{{Graph: sp(g)}, {Graph: sp(graphOwnedBy(t, top, 0))}})
	if err != nil {
		t.Fatalf("SubmitBatch with dead owner: %v", err)
	}
	for i, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("item %d: %v", i, oc.Err)
		}
	}
	if !outs[0].Result.FallbackLocal || outs[0].Result.Served != 0 {
		t.Fatalf("item 0 should degrade to local compute: %+v", outs[0].Result)
	}
	if outs[1].Result.FallbackLocal {
		t.Fatalf("item 1 is locally owned, no fallback expected: %+v", outs[1].Result)
	}
	if !labelsEq(outs[0].Result.Labels, wantLabels(g)) {
		t.Fatal("fallback labels differ from union-find truth")
	}
	if s := entry.Stats(); s.FallbackLocal != 1 {
		t.Fatalf("fallback_local = %d, want 1", s.FallbackLocal)
	}
}
