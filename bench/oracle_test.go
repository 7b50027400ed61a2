package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

// fakeServe answers POST /v1/components with the true labelling,
// passed through corrupt first.
func fakeServe(t *testing.T, corrupt func([]int)) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g, err := graph.ReadEdgeList(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		labels := graph.ConnectedComponentsUnionFind(g)
		comps := graph.ComponentCount(labels)
		corrupt(labels)
		_ = json.NewEncoder(w).Encode(oneShotReply{N: g.N(), Components: comps, Labels: labels})
	}))
}

func TestCorruptedLabelsCounted(t *testing.T) {
	p := oneShotPlan(7, gcacc.EngineGCA, 16, 12, 4, 1)
	for _, c := range []struct {
		name    string
		corrupt func([]int)
		failed  int
	}{
		{"true labels", func([]int) {}, 0},
		{"one label off", func(l []int) { l[len(l)-1] = len(l) }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := fakeServe(t, c.corrupt)
			defer srv.Close()
			lc := newLoadClient([]string{srv.URL}, 1)
			defer lc.close()
			var res result
			res.count([]sample{lc.do(context.Background(), p.op(0), time.Now(), false)})
			if res.attempted != 1 || res.failed != c.failed {
				t.Errorf("attempted %d, failed %d (%v); want 1, %d", res.attempted, res.failed, res.firstErr, c.failed)
			}
		})
	}
}

func TestStreamReplay(t *testing.T) {
	e := func(u, v int32) sparse.Edge { return sparse.Edge{U: u, V: v} }
	initial := []sparse.Edge{e(0, 1), e(1, 2)} // 5 vertices: {0,1,2} {3} {4}
	muts := []mutation{
		{epoch: 3, add: false, edges: []sparse.Edge{e(1, 2)}}, // {0,1} {2} {3} {4}
		{epoch: 2, add: true, edges: []sparse.Edge{e(3, 4)}},  // {0,1,2} {3,4}
	}
	good := []observation{{1, 3}, {2, 2}, {3, 3}}
	if wrong, live := streamReplay(5, initial, 1, muts, good); wrong != 0 || len(live) != 2 {
		t.Errorf("true history: %d wrong, %d live edges; want 0, 2", wrong, len(live))
	}
	bad := []observation{{2, 3}, {3, 2}, {7, 3}}
	if wrong, _ := streamReplay(5, initial, 1, muts, bad); wrong != 3 {
		t.Errorf("three wrong answers: counted %d", wrong)
	}
	gap := append(muts, mutation{epoch: 5, add: true, edges: []sparse.Edge{e(2, 3)}})
	if wrong, _ := streamReplay(5, initial, 1, gap, good); wrong != 1 {
		t.Errorf("an epoch gap: counted %d wrong, want 1", wrong)
	}
}
