package cluster

import (
	"context"
	"sync"
	"time"

	"gcacc"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// BatchItem is one job inside a batch. Items are independent: each
// carries its own engine, timeout and cache policy, and each succeeds
// or fails on its own — a batch is never all-or-nothing.
type BatchItem struct {
	// Graph is the item's input.
	Graph *sparse.Graph
	// Engine selects the implementation (default EngineGCA).
	Engine gcacc.Engine
	// Timeout bounds this item's compute (<= 0 inherits the service
	// default via the batch context).
	Timeout time.Duration
	// NoCache bypasses cache lookup/fill and opts the item out of
	// in-batch deduplication.
	NoCache bool
	// Err, if non-nil, is a pre-admission failure (e.g. the HTTP layer
	// could not parse this item's graph). The item short-circuits to a
	// failed outcome without consuming compute; its siblings proceed.
	Err error
}

// ItemOutcome is one item's result-or-error. Exactly one of Result and
// Err is set.
type ItemOutcome struct {
	Result *Result
	Err    error
}

// batchKey identifies duplicate work inside one batch: same graph, same
// engine → one compute, the twins copy the primary's labels.
type batchKey struct {
	fp     [32]byte
	engine gcacc.Engine
}

// SubmitBatch admits a batch under one ticket, splits it by shard
// owner, runs the owner groups concurrently (remote groups as one peer
// sub-batch each), and merges outcomes back into input order. Per-item
// failures stay per-item; a batch-level error is returned only for
// admission failures (empty, oversized, no ticket, replica down).
func (n *Node) SubmitBatch(ctx context.Context, items []BatchItem) ([]ItemOutcome, error) {
	if n.down.Load() {
		return nil, ErrNodeDown
	}
	if len(items) == 0 {
		n.metrics.batchRejected.Inc()
		return nil, ErrEmptyBatch
	}
	if len(items) > n.cfg.MaxBatchItems {
		n.metrics.batchRejected.Inc()
		return nil, ErrBatchTooLarge
	}
	// One queue ticket per batch: admission cost is independent of item
	// count, and a saturated replica sheds whole batches (429) instead
	// of admitting work it cannot schedule.
	select {
	case n.batchGate <- struct{}{}:
	default:
		n.metrics.batchRejected.Inc()
		return nil, ErrBatchBusy
	}
	defer func() { <-n.batchGate }()
	n.metrics.batches.Inc()
	n.metrics.batchItems.Add(int64(len(items)))

	out := make([]ItemOutcome, len(items))
	primaryOf := make(map[batchKey]int) // key → index of first occurrence
	dupOf := make(map[int]int)          // duplicate index → primary index
	groups := make(map[int][]int)       // shard owner → primary indices
	for i, it := range items {
		if it.Err != nil {
			out[i] = ItemOutcome{Err: it.Err}
			continue
		}
		if it.Graph == nil {
			out[i] = ItemOutcome{Err: service.ErrNilGraph}
			continue
		}
		fp := it.Graph.Fingerprint()
		if !it.NoCache {
			k := batchKey{fp: fp, engine: it.Engine}
			if p, ok := primaryOf[k]; ok {
				dupOf[i] = p
				n.metrics.batchDedup.Inc()
				continue
			}
			primaryOf[k] = i
		}
		groups[n.ring.Owner(fp)] = append(groups[n.ring.Owner(fp)], i)
	}

	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			n.runGroup(ctx, owner, items, idxs, out)
		}(owner, idxs)
	}
	wg.Wait()

	// Twins copy the primary's outcome; a caller-owned label slice each,
	// marked Coalesced like any other admission-level join.
	for i, p := range dupOf {
		oc := out[p]
		if oc.Err != nil {
			out[i] = ItemOutcome{Err: oc.Err}
			continue
		}
		cp := *oc.Result
		cp.Result = oc.Result.ForCaller(oc.Result.Cached, true)
		out[i] = ItemOutcome{Result: &cp}
	}
	return out, nil
}

// runGroup executes one owner's share of a batch: locally when this
// replica owns it, as a single peer sub-batch otherwise, degrading to
// local compute when the peer fails.
func (n *Node) runGroup(ctx context.Context, owner int, items []BatchItem, idxs []int, out []ItemOutcome) {
	if owner == n.cfg.Self {
		n.runLocalGroup(ctx, items, idxs, out, owner, false)
		return
	}
	sub := make([]BatchItem, len(idxs))
	for j, i := range idxs {
		sub[j] = items[i]
	}
	outcomes, err := n.peerBatch(ctx, owner, sub)
	if err == nil && len(outcomes) == len(idxs) {
		for j, i := range idxs {
			oc := outcomes[j]
			if oc.Result != nil {
				oc.Result.Owner = owner
				oc.Result.Served = owner
				oc.Result.Proxied = true
			}
			out[i] = oc
		}
		return
	}
	if cerr := ctx.Err(); cerr != nil {
		for _, i := range idxs {
			out[i] = ItemOutcome{Err: cerr}
		}
		return
	}
	n.metrics.fallbackLocal.Add(int64(len(idxs)))
	n.runLocalGroup(ctx, items, idxs, out, owner, true)
}

// runLocalGroup computes the indexed items on this replica's service
// with bounded intra-batch concurrency, stamping routing provenance.
func (n *Node) runLocalGroup(ctx context.Context, items []BatchItem, idxs []int, out []ItemOutcome, owner int, fallback bool) {
	workers := n.cfg.BatchConcurrency
	if workers > len(idxs) {
		workers = len(idxs)
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				res, err := n.runItem(ctx, items[i])
				if err != nil {
					out[i] = ItemOutcome{Err: err}
					continue
				}
				out[i] = ItemOutcome{Result: &Result{
					Result:        res,
					Owner:         owner,
					Served:        n.cfg.Self,
					FallbackLocal: fallback,
				}}
			}
		}()
	}
	for _, i := range idxs {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// runItem runs one batch item on the local service under its own
// timeout, so one slow item expires alone (504) while its siblings
// complete.
func (n *Node) runItem(ctx context.Context, it BatchItem) (*service.Result, error) {
	ictx := ctx
	if it.Timeout > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ctx, it.Timeout)
		defer cancel()
	}
	return n.svc.Submit(ictx, service.Request{Sparse: it.Graph, Engine: it.Engine, NoCache: it.NoCache})
}

// peerBatch ships a pre-routed sub-batch to its owner as one peer call.
func (n *Node) peerBatch(ctx context.Context, member int, items []BatchItem) ([]ItemOutcome, error) {
	p := n.peer(member)
	if p == nil {
		n.metrics.peerCalls.Inc()
		n.metrics.peerErrors.Inc()
		return nil, ErrPeerDown
	}
	if err := n.beforePeerCall(ctx); err != nil {
		return nil, err
	}
	outcomes, err := p.ComputeBatch(ctx, items)
	if err != nil {
		n.metrics.peerErrors.Inc()
		return nil, err
	}
	return outcomes, nil
}

// localBatch serves a peer's pre-routed sub-batch: every item is owned
// here, so it runs as one local group.
func (n *Node) localBatch(ctx context.Context, items []BatchItem) []ItemOutcome {
	out := make([]ItemOutcome, len(items))
	idxs := make([]int, len(items))
	for i := range idxs {
		idxs[i] = i
	}
	n.runLocalGroup(ctx, items, idxs, out, n.cfg.Self, false)
	return out
}
