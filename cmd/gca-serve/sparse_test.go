package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// Admission on the sparse request path: a request body is parsed into
// an edge list, so the vertex count alone never costs n² bits, and the
// status codes follow admission, not the parser — 413 above
// -max-vertices, 422 for a dense-only engine above gcacc.DenseCutoff,
// 200 for a sparse engine at any admitted size.

// sparseBody renders g as an edge-list request body.
func sparseBody(t *testing.T, g *sparse.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteEdgeStream(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// millionVertexGraph is a 10⁶-vertex graph with a few thousand edges.
func millionVertexGraph() *sparse.Graph {
	return sparse.RandomEdges(1_000_000, 4000, rand.New(rand.NewSource(3)))
}

func checkLabels(t *testing.T, what string, g *sparse.Graph, components int, labels []int) {
	t.Helper()
	want := sparse.ConnectedComponentsUnionFind(g)
	if components != sparse.ComponentCount(want) || len(labels) != len(want) {
		t.Fatalf("%s: %d components, %d labels; want %d and %d", what, components, len(labels), sparse.ComponentCount(want), len(want))
	}
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("%s: label[%d] = %d, want %d", what, v, labels[v], want[v])
		}
	}
}

func TestComponentsHandlerSparseAdmission(t *testing.T) {
	svc := service.New(service.Config{QueueDepth: 8, Workers: 2})
	t.Cleanup(svc.Close)
	h := componentsHandler(svc, 1<<20, false)

	// One vertex above the default cap (graph.MaxParseVertices): the
	// header parses, and admission answers 413.
	w := postComponents(t, h, "?engine=liutarjan", "16385 0\n")
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("16385 vertices: status = %d, want 413 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)

	w = postComponents(t, h, "?engine=gca", fmt.Sprintf("%d 0\n", gcacc.DenseCutoff+1))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("gca above the dense cutoff: status = %d, want 422 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)

	// A million vertices on a sparse engine, once -max-vertices allows it.
	big := service.New(service.Config{QueueDepth: 8, Workers: 2, MaxVertices: 1 << 20})
	t.Cleanup(big.Close)
	g := millionVertexGraph()
	w = postComponents(t, componentsHandler(big, 1<<26, false), "?engine=liutarjan", sparseBody(t, g))
	if w.Code != http.StatusOK {
		t.Fatalf("liutarjan at n=10⁶: status = %d, want 200 (body %.200q)", w.Code, w.Body.String())
	}
	var resp cluster.WireOutcome
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	checkLabels(t, "liutarjan at n=10⁶", g, resp.Components, resp.Labels)
}

func TestBatchHandlerSparseAdmission(t *testing.T) {
	svc := service.New(service.Config{QueueDepth: 8, Workers: 2})
	t.Cleanup(svc.Close)
	resp := decodeBatch(t, postBatch(t, batchHandler(newStandaloneNode(t, svc), 1<<20), "", cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: "16385 0\n", Engine: "liutarjan"},
		{Graph: fmt.Sprintf("%d 0\n", gcacc.DenseCutoff+1), Engine: "gca"},
	}}))
	for i, want := range []int{http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity} {
		if oc := resp.Items[i]; oc.Status != want || oc.Error == "" {
			t.Errorf("item %d: status = %d (error %q), want %d", i, oc.Status, oc.Error, want)
		}
	}

	big := service.New(service.Config{QueueDepth: 8, Workers: 2, MaxVertices: 1 << 20})
	t.Cleanup(big.Close)
	g := millionVertexGraph()
	resp = decodeBatch(t, postBatch(t, batchHandler(newStandaloneNode(t, big), 1<<26), "", cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: sparseBody(t, g), Engine: "liutarjan"},
	}}))
	if oc := resp.Items[0]; oc.Status != http.StatusOK {
		t.Fatalf("liutarjan at n=10⁶: status = %d (error %q), want 200", oc.Status, oc.Error)
	}
	checkLabels(t, "batch liutarjan at n=10⁶", g, resp.Items[0].Components, resp.Items[0].Labels)
}

// TestComponentsRequestAllocatesLinear pins the request path's memory to
// O(n + m): parsing an n = 8192, m = 16384 edge-list body and serving it
// on the sequential engine, uncached, may allocate at most 1 MiB; an
// n²-bit matrix on the way would cost 8 MiB alone.
func TestComponentsRequestAllocatesLinear(t *testing.T) {
	svc := service.New(service.Config{QueueDepth: 8, Workers: 1})
	t.Cleanup(svc.Close)
	body := sparseBody(t, sparse.RandomEdges(8192, 16384, rand.New(rand.NewSource(5))))
	serve := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/components?engine=sequential&nocache=1", bytes.NewReader([]byte(body)))
		w := httptest.NewRecorder()
		req, ok := parseComponents(w, r, 1<<20, false)
		if !ok {
			t.Fatalf("parse: status %d (body %q)", w.Code, w.Body.String())
		}
		if _, err := svc.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	serve() // warm the worker and the runtime
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("n=8192 m=16384 request allocates %d KiB", perRequest>>10)
	if perRequest > 1<<20 {
		t.Fatalf("request allocates %d bytes, want <= 1 MiB", perRequest)
	}
}
