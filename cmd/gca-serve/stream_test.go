package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/fault"
	"gcacc/internal/stream"
)

// Named-graph API tests: the streaming endpoints must map every failure
// onto the documented status — 404 for an unknown graph, 409 for a lost
// epoch race, 422 for an over-limit batch, 499 for a client that
// disconnects mid-recompute — and a clean mutate/query cycle must carry
// the epoch through exactly.

func newStreamMux(t *testing.T, cfg stream.RegistryConfig) *http.ServeMux {
	t.Helper()
	mux := http.NewServeMux()
	newStreamAPI(stream.NewRegistry(cfg), 1<<20).register(mux)
	return mux
}

func do(mux *http.ServeMux, method, target, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

func TestStreamLifecycle(t *testing.T) {
	mux := newStreamMux(t, stream.RegistryConfig{})

	if w := do(mux, http.MethodPut, "/v1/graphs/g?n=6", ""); w.Code != http.StatusCreated {
		t.Fatalf("create: status %d (body %q)", w.Code, w.Body.String())
	}
	w := do(mux, http.MethodPost, "/v1/graphs/g/edges?epoch=0", "0 1\n1 2\n4 5\n")
	if w.Code != http.StatusOK {
		t.Fatalf("append: status %d (body %q)", w.Code, w.Body.String())
	}
	var m stream.Mutation
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || m.Applied != 3 {
		t.Fatalf("append: %+v, want epoch 1 applied 3", m)
	}

	w = do(mux, http.MethodGet, "/v1/graphs/g/components", "")
	if w.Code != http.StatusOK {
		t.Fatalf("components: status %d (body %q)", w.Code, w.Body.String())
	}
	var snap stream.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 || snap.Components != 3 || len(snap.Labels) != 6 {
		t.Fatalf("components: %+v, want epoch 1, 3 components, 6 labels", snap)
	}

	w = do(mux, http.MethodDelete, "/v1/graphs/g/edges?epoch=1", "1 2\n")
	if w.Code != http.StatusOK {
		t.Fatalf("retract: status %d (body %q)", w.Code, w.Body.String())
	}
	w = do(mux, http.MethodGet, "/v1/graphs/g/components?labels=0", "")
	if w.Code != http.StatusOK {
		t.Fatalf("components after retract: status %d", w.Code)
	}
	snap = stream.Snapshot{}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Components != 4 || !snap.Recomputed || snap.Labels != nil {
		t.Fatalf("after retract: %+v, want 4 components via recompute, labels elided", snap)
	}

	if w := do(mux, http.MethodGet, "/v1/graphs", ""); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), `"g"`) {
		t.Fatalf("list: status %d (body %q)", w.Code, w.Body.String())
	}
	if w := do(mux, http.MethodDelete, "/v1/graphs/g", ""); w.Code != http.StatusOK {
		t.Fatalf("drop: status %d", w.Code)
	}
	if w := do(mux, http.MethodGet, "/v1/graphs/g", ""); w.Code != http.StatusNotFound {
		t.Fatalf("info after drop: status %d, want 404", w.Code)
	}
}

// TestStreamDeleteChordStaysClean: retracting an edge that closed a
// cycle leaves the spanning forest intact, so the graph stays clean and
// the next query answers from union-find without a recompute.
func TestStreamDeleteChordStaysClean(t *testing.T) {
	mux := newStreamMux(t, stream.RegistryConfig{})
	do(mux, http.MethodPut, "/v1/graphs/g?n=4", "")
	do(mux, http.MethodPost, "/v1/graphs/g/edges", "0 1\n1 2\n2 3\n3 0\n")

	w := do(mux, http.MethodDelete, "/v1/graphs/g/edges", "3 0\n")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"dirty":false`) {
		t.Fatalf("chord delete: status %d, body %q, want \"dirty\":false", w.Code, w.Body.String())
	}
	w = do(mux, http.MethodGet, "/v1/graphs/g/components", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"recomputed":false`) {
		t.Fatalf("query after chord delete: status %d, body %q, want \"recomputed\":false", w.Code, w.Body.String())
	}
	var snap stream.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Components != 1 || snap.Engine != "unionfind" {
		t.Fatalf("query after chord delete: %+v, want 1 component from union-find", snap)
	}
}

func TestStreamUnknownGraph404(t *testing.T) {
	mux := newStreamMux(t, stream.RegistryConfig{})
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, "/v1/graphs/nope", ""},
		{http.MethodDelete, "/v1/graphs/nope", ""},
		{http.MethodPost, "/v1/graphs/nope/edges", "0 1\n"},
		{http.MethodDelete, "/v1/graphs/nope/edges", "0 1\n"},
		{http.MethodGet, "/v1/graphs/nope/components", ""},
	} {
		if w := do(mux, tc.method, tc.target, tc.body); w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.target, w.Code)
		}
	}
}

func TestStreamEpochConflict409(t *testing.T) {
	mux := newStreamMux(t, stream.RegistryConfig{})
	do(mux, http.MethodPut, "/v1/graphs/g?n=4", "")
	do(mux, http.MethodPost, "/v1/graphs/g/edges", "0 1\n") // epoch now 1

	w := do(mux, http.MethodPost, "/v1/graphs/g/edges?epoch=0", "2 3\n")
	if w.Code != http.StatusConflict {
		t.Fatalf("stale epoch: status %d, want 409 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)
	// The losing writer re-reads and retries with the current epoch.
	if w := do(mux, http.MethodPost, "/v1/graphs/g/edges?epoch=1", "2 3\n"); w.Code != http.StatusOK {
		t.Fatalf("retry at current epoch: status %d", w.Code)
	}
	// Creating over an existing name is the same conflict class.
	if w := do(mux, http.MethodPut, "/v1/graphs/g?n=4", ""); w.Code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", w.Code)
	}
}

func TestStreamOverLimitBatch422(t *testing.T) {
	mux := newStreamMux(t, stream.RegistryConfig{MaxBatch: 2, MaxEdges: 3})
	do(mux, http.MethodPut, "/v1/graphs/g?n=8", "")

	w := do(mux, http.MethodPost, "/v1/graphs/g/edges", "0 1\n1 2\n2 3\n")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("batch over MaxBatch: status %d, want 422 (body %q)", w.Code, w.Body.String())
	}
	// Two two-edge batches exhaust the live-edge budget; the third trips it.
	do(mux, http.MethodPost, "/v1/graphs/g/edges", "0 1\n1 2\n")
	if w := do(mux, http.MethodPost, "/v1/graphs/g/edges", "2 3\n3 4\n"); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("batch over MaxEdges: status %d, want 422", w.Code)
	}
	// Out-of-range and self-loop edges are semantic rejections, not parse errors.
	if w := do(mux, http.MethodPost, "/v1/graphs/g/edges", "0 99\n"); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range edge: status %d, want 422", w.Code)
	}
	// A non-numeric body is malformed: 400, not 422.
	if w := do(mux, http.MethodPost, "/v1/graphs/g/edges", "zero one\n"); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", w.Code)
	}
}

func TestStreamClientDisconnect499(t *testing.T) {
	// A fault schedule that delays every recompute step pins the handler
	// inside the engine long enough for the client to walk away.
	inj := fault.New(fault.Config{Seed: 1, StepDelayP: 1, StepDelay: 20 * time.Millisecond})
	mux := newStreamMux(t, stream.RegistryConfig{
		Engine: gcacc.EngineLiuTarjan,
		Fault:  inj,
	})
	do(mux, http.MethodPut, "/v1/graphs/g?n=64", "")
	var body strings.Builder
	for v := 1; v < 64; v++ {
		fmt.Fprintf(&body, "%d %d\n", v-1, v)
	}
	do(mux, http.MethodPost, "/v1/graphs/g/edges", body.String())
	// A bridge deletion dirties the graph, so the next query must recompute.
	do(mux, http.MethodDelete, "/v1/graphs/g/edges", "30 31\n")

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/graphs/g/components", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	time.AfterFunc(5*time.Millisecond, cancel)
	mux.ServeHTTP(w, req)
	if w.Code != cluster.StatusClientClosedRequest {
		t.Fatalf("disconnect mid-recompute: status %d, want %d (body %q)",
			w.Code, cluster.StatusClientClosedRequest, w.Body.String())
	}

	// The graph is still dirty but not poisoned: a patient client gets the
	// correct labelling afterwards.
	w = do(mux, http.MethodGet, "/v1/graphs/g/components", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query after disconnect: status %d (body %q)", w.Code, w.Body.String())
	}
	var snap stream.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Components != 2 || !snap.Recomputed {
		t.Fatalf("query after disconnect: %+v, want 2 components via recompute", snap)
	}
}

func TestStreamBadRequests(t *testing.T) {
	mux := newStreamMux(t, stream.RegistryConfig{MaxGraphs: 1})
	for _, tc := range []struct {
		name   string
		method string
		target string
		want   int
	}{
		{"createNoN", http.MethodPut, "/v1/graphs/g", http.StatusBadRequest},
		{"createBadN", http.MethodPut, "/v1/graphs/g?n=x", http.StatusBadRequest},
		{"createNegativeN", http.MethodPut, "/v1/graphs/g?n=-1", http.StatusBadRequest},
		{"badName", http.MethodPut, "/v1/graphs/bad%20name?n=4", http.StatusBadRequest},
		{"badEpoch", http.MethodPost, "/v1/graphs/g/edges?epoch=x", http.StatusBadRequest},
		{"negativeEpoch", http.MethodPost, "/v1/graphs/g/edges?epoch=-2", http.StatusBadRequest},
	} {
		if w := do(mux, tc.method, tc.target, ""); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
	// The graph cap answers 429, telling clients to drop a graph first.
	do(mux, http.MethodPut, "/v1/graphs/a?n=4", "")
	if w := do(mux, http.MethodPut, "/v1/graphs/b?n=4", ""); w.Code != http.StatusTooManyRequests {
		t.Errorf("graph limit: status %d, want 429", w.Code)
	}
}
