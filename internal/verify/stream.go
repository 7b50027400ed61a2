package verify

import (
	"context"
	"fmt"
	"math/rand"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/sparse"
	"gcacc/internal/stream"
)

// The streaming arm of the conformance harness: seeded mutation traces
// (append/query/delete interleavings derived from the sparse corpus
// families) replayed against multiple stream replicas — the incremental
// union-find fast path, a periodic-full-recompute replica on the
// log-diameter engine, and, at dense scale, a replica whose recompute
// engine is the paper's GCA itself. Every query is checked against a
// from-scratch union-find oracle over that replica's live edge set,
// every accepted batch against the epoch counter (monotonic, dense),
// and clean runs additionally require all replicas to agree label for
// label. Under a fault spec the same traces replay with mid-batch
// aborts and stalled/failing recomputes injected; faults may surface as
// transient errors but never as a wrong answer.

// StreamOptions configures RunStream.
type StreamOptions struct {
	// N is the corpus size budget (vertices per instance); < 8 is
	// clamped.
	N int
	// Seed drives the corpus generators and the trace interleavings.
	Seed int64
	// Workers is the recompute-engine worker budget (< 1 = GOMAXPROCS).
	Workers int
	// FaultSpec, when non-empty, is a fault.ParseSpec schedule injected
	// into every replica: batcherr aborts mutations mid-batch, steperr/
	// stepdelay/stall disrupt recomputes. Transient errors are tolerated
	// and counted; divergence is still a failure.
	FaultSpec string
	// DenseN is the size budget of the dense pass, where the GCA engine
	// serves as the periodic recompute engine (0 = 48; capped at the
	// dense cutoff).
	DenseN int
}

// streamReplica is one state under test plus its private oracle: the
// live edge set rebuilt from exactly the batches this replica accepted,
// so fault runs (where replicas may reject different batches) stay
// independently checkable.
type streamReplica struct {
	st       *stream.State
	live     map[sparse.Edge]struct{}
	accepted uint64
	sum      *EngineSummary
}

// RunStream executes the stream conformance harness. The returned error
// covers harness malfunction only; conformance violations land in
// Report.Failures.
func RunStream(opt StreamOptions) (*Report, error) {
	if opt.N < 8 {
		opt.N = 8
	}
	if opt.DenseN <= 0 {
		opt.DenseN = 48
	}
	if opt.DenseN > gcacc.DenseCutoff {
		opt.DenseN = gcacc.DenseCutoff
	}
	cfg, err := fault.ParseSpec(opt.FaultSpec)
	if err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if cfg.Enabled() {
		inj = fault.New(cfg)
	}

	cases := SparseCorpus(opt.N, opt.Seed)
	rep := &Report{N: opt.N, Seed: opt.Seed, Families: SparseFamilies(cases), Cases: len(cases)}
	if inj != nil {
		rep.FaultSpec = cfg.String()
	}

	sums := []*EngineSummary{
		{Engine: "stream-incremental[liutarjan]", Path: "stream"},
		{Engine: "stream-periodic[logdiameter]", Path: "stream"},
		{Engine: "stream-periodic[gca]", Path: "stream"},
	}
	mkReplica := func(n int, engine gcacc.Engine, period int, sum *EngineSummary) (*streamReplica, error) {
		st, err := stream.NewState(n, stream.Config{
			Engine:          engine,
			Workers:         opt.Workers,
			RecomputePeriod: period,
			Fault:           inj,
		})
		if err != nil {
			return nil, fmt.Errorf("verify: stream replica %s: %w", sum.Engine, err)
		}
		return &streamReplica{st: st, live: map[sparse.Edge]struct{}{}, sum: sum}, nil
	}

	// Main pass at the full size budget: the incremental fast path vs a
	// replica forced through full log-diameter recomputes every other
	// batch.
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5eed))
	for _, c := range cases {
		tr := streamTrace(c, rng)
		a, err := mkReplica(tr.N, gcacc.EngineLiuTarjan, 0, sums[0])
		if err != nil {
			return nil, err
		}
		b, err := mkReplica(tr.N, gcacc.EngineLogDiameter, 2, sums[1])
		if err != nil {
			return nil, err
		}
		replayTrace(rep, c.Name, tr, []*streamReplica{a, b}, inj != nil)
	}

	// Dense pass: same discipline at a size where the paper's GCA can be
	// the recompute engine (every batch densifies through the facade), so
	// "periodic full GCA recompute" is literal, not approximated.
	denseCases := SparseCorpus(opt.DenseN, opt.Seed+1)
	for _, c := range denseCases {
		tr := streamTrace(c, rng)
		a, err := mkReplica(tr.N, gcacc.EngineLiuTarjan, 0, sums[0])
		if err != nil {
			return nil, err
		}
		g, err := mkReplica(tr.N, gcacc.EngineGCA, 1, sums[2])
		if err != nil {
			return nil, err
		}
		replayTrace(rep, "dense/"+c.Name, tr, []*streamReplica{a, g}, inj != nil)
	}
	rep.Cases += len(denseCases)

	for _, s := range sums {
		rep.Engines = append(rep.Engines, *s)
	}
	return rep, nil
}

// replayTrace drives one trace through every replica in lockstep,
// checking queries against each replica's oracle and, on clean (fault-
// free) runs, the replicas against each other.
func replayTrace(rep *Report, caseName string, tr *stream.Trace, replicas []*streamReplica, faulty bool) {
	ctx := context.Background()
	fail := func(engine, check, detail string, args ...any) {
		rep.Failures = append(rep.Failures, Failure{
			Case: caseName, Engine: engine, Check: check, Detail: fmt.Sprintf(detail, args...),
		})
	}
	tolerated := func(err error) bool {
		return faulty && (fault.IsTransient(err) || ctx.Err() != nil)
	}
	for _, r := range replicas {
		r.sum.Cases++
	}

	// snaps holds each replica's answer to the current query, nil when
	// the replica errored (tolerated under faults) — cross-replica
	// equivalence compares the non-nil ones on clean runs.
	snaps := make([]*stream.Snapshot, len(replicas))
	for opIdx, op := range tr.Ops {
		switch op.Kind {
		case stream.OpAppend, stream.OpDelete:
			for _, r := range replicas {
				// The expected-epoch precondition is part of the replay:
				// a serial writer supplying its view of the epoch must
				// never conflict.
				var m stream.Mutation
				var err error
				if op.Kind == stream.OpAppend {
					m, err = r.st.Append(ctx, op.Edges, int64(r.accepted))
				} else {
					m, err = r.st.Delete(ctx, op.Edges, int64(r.accepted))
				}
				rep.Checks++
				r.sum.Checks++
				if err != nil {
					if tolerated(err) {
						r.sum.Errors++
						continue // batch atomic: oracle unchanged
					}
					r.sum.Failures++
					fail(r.sum.Engine, "mutation", "op %d (%s): %v", opIdx, op.Kind, err)
					continue
				}
				r.accepted++
				if op.Kind == stream.OpDelete && m.Applied > 0 && !m.Dirty {
					r.sum.CleanDeletes++
				}
				if m.Epoch != r.accepted {
					r.sum.Failures++
					fail(r.sum.Engine, "epoch", "op %d: epoch %d after %d accepted batches",
						opIdx, m.Epoch, r.accepted)
				}
				for _, e := range op.Edges {
					if e.U > e.V {
						e.U, e.V = e.V, e.U
					}
					if op.Kind == stream.OpAppend {
						r.live[e] = struct{}{}
					} else {
						delete(r.live, e)
					}
				}
			}

		case stream.OpQuery:
			for i, r := range replicas {
				snaps[i] = nil
				snap, err := r.st.Components(ctx)
				rep.Checks += 2
				r.sum.Checks += 2
				if err != nil {
					if tolerated(err) {
						r.sum.Errors++
						continue
					}
					r.sum.Failures++
					fail(r.sum.Engine, "query", "op %d: %v", opIdx, err)
					continue
				}
				snaps[i] = snap
				if snap.Epoch != r.accepted {
					r.sum.Failures++
					fail(r.sum.Engine, "epoch", "op %d: snapshot epoch %d, want %d (monotonic, one per batch)",
						opIdx, snap.Epoch, r.accepted)
				}
				want := oracleLabels(tr.N, r.live)
				if !labelsEqual(snap.Labels, want) {
					r.sum.Failures++
					fail(r.sum.Engine, "oracle", "op %d: labelling deviates from union-find: %s",
						opIdx, diffLabels(snap.Labels, want))
				}
				if snap.Components != sparse.ComponentCount(want) {
					r.sum.Failures++
					fail(r.sum.Engine, "oracle", "op %d: component count %d, oracle %d",
						opIdx, snap.Components, sparse.ComponentCount(want))
				}
			}
			if faulty {
				continue // live sets may legitimately differ across replicas
			}
			base := snaps[0]
			for i := 1; i < len(replicas); i++ {
				rep.Checks++
				replicas[i].sum.Checks++
				if base == nil || snaps[i] == nil {
					continue
				}
				if !labelsEqual(base.Labels, snaps[i].Labels) {
					replicas[i].sum.Failures++
					fail(replicas[i].sum.Engine, "equivalence",
						"op %d: incremental (%s) and recompute (%s) labellings diverge: %s",
						opIdx, replicas[0].sum.Engine, replicas[i].sum.Engine,
						diffLabels(snaps[i].Labels, base.Labels))
				}
			}
		}
	}
}

// oracleLabels recomputes a labelling from scratch over a live edge set.
func oracleLabels(n int, live map[sparse.Edge]struct{}) []int {
	g := sparse.New(n)
	for e := range live {
		g.AddEdge(int(e.U), int(e.V))
	}
	return sparse.ConnectedComponentsUnionFind(g)
}

// streamTrace derives a seeded mutation trace from one corpus case: the
// case's edges arrive shuffled in batches with queries interleaved, a
// prefix is re-appended (duplicates must be no-ops), a sample is deleted
// in two batches (forcing the deletion-tolerant recompute path), half of
// the deletions are re-appended, the still-deleted edges are deleted
// again (absent-edge no-ops), and up to four re-appended edges are
// deleted one batch at a time (those that closed a cycle miss the
// spanning forest and leave the graph clean). Every phase ends in a query so each regime of the
// state machine is checked.
func streamTrace(c SparseCase, rng *rand.Rand) *stream.Trace {
	edges := append([]sparse.Edge(nil), c.Graph.Edges()...)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	tr := &stream.Trace{N: c.Graph.N()}
	query := func() { tr.Ops = append(tr.Ops, stream.Op{Kind: stream.OpQuery}) }
	batch := func(kind stream.OpKind, b []sparse.Edge) {
		if len(b) > 0 {
			tr.Ops = append(tr.Ops, stream.Op{Kind: kind, Edges: b})
		}
	}

	// Build-up: the graph arrives in five shuffled chunks.
	const chunks = 5
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(edges)/chunks, (i+1)*len(edges)/chunks
		batch(stream.OpAppend, edges[lo:hi])
		query()
	}
	// Duplicate appends are no-ops.
	batch(stream.OpAppend, edges[:min(4, len(edges))])
	query()
	// Delete a ~25% sample in two waves.
	var del []sparse.Edge
	for i := 0; i < len(edges); i += 4 {
		del = append(del, edges[i])
	}
	half := len(del) / 2
	batch(stream.OpDelete, del[:half])
	query()
	batch(stream.OpDelete, del[half:])
	query()
	// Re-append the first wave; the second stays deleted.
	batch(stream.OpAppend, del[:half])
	query()
	// Deleting already-absent edges is a no-op.
	batch(stream.OpDelete, del[half:])
	query()
	// Single-edge retractions from a clean graph of re-appended edges:
	// those that closed a cycle lie outside the replica's spanning forest
	// and must leave it clean; a tree edge must not.
	for _, e := range del[:min(4, half)] {
		batch(stream.OpDelete, []sparse.Edge{e})
		query()
	}
	return tr
}
