package stream

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"gcacc"
	"gcacc/internal/sparse"
)

// benchEdges builds a deterministic pseudo-random batch stream over n
// vertices: batches of size batch, distinct enough that most appends
// are fresh unions.
func benchEdges(n, total int) []sparse.Edge {
	edges := make([]sparse.Edge, total)
	x := uint64(88172645463325252)
	for i := range edges {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := int32(x % uint64(n))
		v := int32((x >> 32) % uint64(n))
		if u == v {
			v = (v + 1) % int32(n)
		}
		if u > v {
			u, v = v, u
		}
		edges[i] = sparse.Edge{U: u, V: v}
	}
	return edges
}

// BenchmarkStreamAppend measures the incremental fast path: batches of
// 64 edges unioned into a 100k-vertex graph, no recomputes.
func BenchmarkStreamAppend(b *testing.B) {
	const n, batch = 100_000, 64
	ctx := context.Background()
	edges := benchEdges(n, 1<<16)
	b.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(b *testing.B) {
		st, err := NewState(n, Config{Engine: gcacc.EngineLiuTarjan})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * batch) % (len(edges) - batch)
			if _, err := st.Append(ctx, edges[lo:lo+batch], NoEpoch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "edges/s")
	})
}

// BenchmarkStreamQuery measures clean (incremental) queries against a
// populated graph: one O(n) label snapshot per query, no recompute.
func BenchmarkStreamQuery(b *testing.B) {
	const n = 100_000
	ctx := context.Background()
	st, err := NewState(n, Config{Engine: gcacc.EngineLiuTarjan})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Append(ctx, benchEdges(n, 2*n), NoEpoch); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.Components(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamRecompute measures the deletion-tolerance cost: each
// query pays a full Liu–Tarjan recompute, plus the union-find pass that
// rebuilds the forest and its tree bits, because deleting a tree edge
// dirtied the graph — the other side of the append-throughput vs
// recompute-period tradeoff.
func BenchmarkStreamRecompute(b *testing.B) {
	const n = 100_000
	ctx := context.Background()
	st, err := NewState(n, Config{Engine: gcacc.EngineLiuTarjan})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Append(ctx, benchEdges(n, 2*n), NoEpoch); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		j := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Dirty the graph: delete and re-append one tree edge.
			j = nextEdge(st, j, true)
			e := st.edges[j]
			if _, err := st.Delete(ctx, []sparse.Edge{e}, NoEpoch); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Append(ctx, []sparse.Edge{e}, NoEpoch); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			snap, err := st.Components(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if !snap.Recomputed {
				b.Fatal("query was not a recompute")
			}
		}
	})
}

// BenchmarkStreamDeleteNonTree measures what a deletion costs when it
// misses the spanning forest: one op deletes a non-tree edge, answers a
// label-free query from the still-clean forest and re-appends the edge,
// with no recompute anywhere.
func BenchmarkStreamDeleteNonTree(b *testing.B) {
	const n = 100_000
	ctx := context.Background()
	st, err := NewState(n, Config{Engine: gcacc.EngineLiuTarjan})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Append(ctx, benchEdges(n, 2*n), NoEpoch); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		j := 0
		for i := 0; i < b.N; i++ {
			j = nextEdge(st, j, false)
			e := []sparse.Edge{st.edges[j]}
			if _, err := st.Delete(ctx, e, NoEpoch); err != nil {
				b.Fatal(err)
			}
			snap, err := st.components(ctx, false)
			if err != nil {
				b.Fatal(err)
			}
			if snap.Recomputed {
				b.Fatal("deleting a non-tree edge forced a recompute")
			}
			if _, err := st.Append(ctx, e, NoEpoch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// nextEdge returns the index of the first live edge at or after j
// (cyclically) whose tree bit equals tree.
func nextEdge(st *State, j int, tree bool) int {
	for j %= len(st.edges); st.tree[j] != tree; {
		j = (j + 1) % len(st.edges)
	}
	return j
}

// BenchmarkParseBatch measures decoding an HTTP mutation body: a
// 64-edge append and a 50k-edge preload batch.
func BenchmarkParseBatch(b *testing.B) {
	for _, m := range []int{64, 50_000} {
		var body []byte
		for _, e := range benchEdges(100_000, m) {
			body = fmt.Appendf(body, "%d %d\n", e.U, e.V)
		}
		b.Run(fmt.Sprintf("edges=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseBatch(bytes.NewReader(body), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
