package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// testTopology builds an in-process topology that is torn down with the
// test.
func testTopology(t *testing.T, replicas int, mode Mode) *Topology {
	t.Helper()
	top, err := NewInProcessTopology(replicas, service.Config{}, Config{Mode: mode})
	if err != nil {
		t.Fatalf("NewInProcessTopology: %v", err)
	}
	t.Cleanup(top.Close)
	return top
}

// graphOwnedBy searches deterministic path graphs until one hashes to
// the wanted owner on the topology's ring.
func graphOwnedBy(t *testing.T, top *Topology, owner int) *graph.Graph {
	t.Helper()
	for n := 2; n < 2000; n++ {
		g := graph.Path(n)
		if top.Nodes[0].Owner(g.Fingerprint()) == owner {
			return g
		}
	}
	t.Fatalf("no path graph owned by member %d", owner)
	return nil
}

func wantLabels(g *graph.Graph) []int {
	return graph.ConnectedComponentsUnionFind(g)
}

// sp converts a dense test graph to the batch tier's representation.
func sp(g *graph.Graph) *sparse.Graph { return sparse.FromDense(g) }

func labelsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewNodeValidation(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	if _, err := NewNode(svc, Config{Self: 7, Members: []int{0, 1}}); err == nil {
		t.Fatal("self outside members: want error")
	}
	if _, err := NewNode(svc, Config{Self: 0, Members: []int{0, 1, 1}}); err == nil {
		t.Fatal("duplicate member: want error")
	}
	if _, err := NewNode(nil, Config{Self: 0}); err == nil {
		t.Fatal("nil service: want error")
	}
	n, err := NewNode(svc, Config{Self: 3})
	if err != nil {
		t.Fatalf("singleton node: %v", err)
	}
	if got := n.Config().Members; len(got) != 1 || got[0] != 3 {
		t.Fatalf("singleton members = %v, want [3]", got)
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"proxy", ModeProxy, true},
		{"federate", ModeFederate, true},
		{" Proxy ", ModeProxy, true},
		{"redirect", 0, false},
		{"", 0, false},
	} {
		got, err := ParseMode(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if ModeProxy.String() != "proxy" || ModeFederate.String() != "federate" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestOwnerAgreesAcrossReplicas(t *testing.T) {
	top := testTopology(t, 4, ModeProxy)
	for n := 2; n < 64; n++ {
		fp := graph.Path(n).Fingerprint()
		want := top.Nodes[0].Owner(fp)
		for _, node := range top.Nodes[1:] {
			if got := node.Owner(fp); got != want {
				t.Fatalf("P%d: node %d owner %d, node 0 owner %d", n, node.Self(), got, want)
			}
		}
	}
}

func TestSubmitOwnedLocal(t *testing.T) {
	top := testTopology(t, 1, ModeProxy)
	g := graph.Path(10)
	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Owner != 0 || res.Served != 0 || res.Proxied || res.FallbackLocal {
		t.Fatalf("single-replica provenance = %+v", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatalf("labels = %v, want %v", res.Labels, wantLabels(g))
	}
}

func TestProxyRouting(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	g := graphOwnedBy(t, top, 1)
	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit via non-owner: %v", err)
	}
	if !res.Proxied || res.Owner != 1 || res.Served != 1 {
		t.Fatalf("proxy provenance = owner=%d served=%d proxied=%v", res.Owner, res.Served, res.Proxied)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("proxied labels differ from union-find truth")
	}
	s0, s1 := top.Nodes[0].Stats(), top.Nodes[1].Stats()
	if s0.RoutedRemote != 1 || s0.Proxied != 1 || s0.PeerCalls != 1 {
		t.Fatalf("node 0 stats = %+v", s0)
	}
	if s1.PeerServed != 1 {
		t.Fatalf("node 1 peer_served = %d, want 1", s1.PeerServed)
	}

	// The owner computed it, so the owner's cache is authoritative: a
	// repeat via the other replica proxies again and hits that cache.
	res2, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("repeat Submit: %v", err)
	}
	if !res2.Cached {
		t.Fatal("repeat via proxy should hit the owner's cache")
	}
}

func TestProxyFallbackWhenPeerStopped(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	g := graphOwnedBy(t, top, 1)
	top.Nodes[1].Stop()

	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit with dead owner: %v", err)
	}
	if !res.FallbackLocal || res.Served != 0 || res.Owner != 1 {
		t.Fatalf("fallback provenance = %+v", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("fallback labels differ from union-find truth")
	}
	s0 := top.Nodes[0].Stats()
	if s0.FallbackLocal != 1 || s0.PeerErrors != 1 {
		t.Fatalf("node 0 stats after fallback = %+v", s0)
	}

	// Restart: traffic proxies again.
	top.Nodes[1].Start()
	res, err = top.Nodes[0].Submit(context.Background(), service.Request{Graph: g, NoCache: true})
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if !res.Proxied {
		t.Fatalf("after restart: provenance = %+v, want proxied", res)
	}
}

// TestProxyReturnsOwnerRefusal pins that proxy mode falls back only
// when the owner gave no verdict. A request the owner's service refuses
// or fails itself reaches the caller with the owner's status, and the
// entry node neither counts a fallback nor runs an engine: a local rerun
// would repeat a deterministic failure and bypass the owner's admission.
func TestProxyReturnsOwnerRefusal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		req    func(t *testing.T, top *Topology) service.Request
		status int
	}{
		{"invalid engine", func(t *testing.T, top *Topology) service.Request {
			return service.Request{Graph: graphOwnedBy(t, top, 1), Engine: gcacc.Engine(99)}
		}, http.StatusBadRequest},
		{"dense-only engine", func(t *testing.T, top *Topology) service.Request {
			for n := gcacc.DenseCutoff + 1; n < gcacc.DenseCutoff+2000; n++ {
				if g := sparse.New(n); top.Nodes[0].Owner(g.Fingerprint()) == 1 {
					return service.Request{Sparse: g, Engine: gcacc.EngineGCA}
				}
			}
			t.Fatal("no edgeless graph above the dense cutoff owned by member 1")
			return service.Request{}
		}, http.StatusUnprocessableEntity},
		{"engine failure", func(t *testing.T, top *Topology) service.Request {
			return service.Request{
				Graph: graphOwnedBy(t, top, 1),
				Fault: fault.New(fault.Config{Seed: 1, StepErrorP: 1}),
			}
		}, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top := testTopology(t, 2, ModeProxy)
			_, err := top.Nodes[0].Submit(context.Background(), tc.req(t, top))
			if err == nil || StatusOf(err) != tc.status {
				t.Fatalf("Submit via non-owner: err = %v (status %d), want status %d", err, StatusOf(err), tc.status)
			}
			if s := top.Nodes[0].Stats(); s.FallbackLocal != 0 || s.PeerCalls != 1 {
				t.Fatalf("entry node: fallback_local = %d, peer_calls = %d; want 0 and 1", s.FallbackLocal, s.PeerCalls)
			}
			if s := top.Nodes[0].Service().Stats(); s.Submitted != 0 {
				t.Fatalf("entry node's service saw %d submissions, want 0", s.Submitted)
			}
			if s := top.Nodes[1].Service().Stats(); s.Submitted != 1 {
				t.Fatalf("owner's service saw %d submissions, want 1", s.Submitted)
			}
		})
	}
}

func TestSubmitOnStoppedNode(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	top.Nodes[0].Stop()
	_, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: graph.Path(4)})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Submit on stopped node: %v, want ErrNodeDown", err)
	}
	if top.Nodes[0].Stopped() != true {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestFederateCacheFillbackAndHit(t *testing.T) {
	top := testTopology(t, 3, ModeProxy)
	for _, n := range top.Nodes {
		n.cfg.Mode = ModeFederate
	}
	owner := 2
	g := graphOwnedBy(t, top, owner)

	// First request via replica 0: owner cache miss, local compute,
	// fill-back offer to the owner.
	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.PeerCacheHit || res.Served != 0 || res.Owner != owner {
		t.Fatalf("first federated request provenance = %+v", res)
	}
	s0 := top.Nodes[0].Stats()
	if s0.PeerCacheMisses != 1 || s0.CacheOffers != 1 {
		t.Fatalf("node 0 stats = misses=%d offers=%d, want 1,1", s0.PeerCacheMisses, s0.CacheOffers)
	}

	// Second request via replica 1: the owner's cache now has it.
	res, err = top.Nodes[1].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit via replica 1: %v", err)
	}
	if !res.PeerCacheHit || res.Served != owner || !res.Cached {
		t.Fatalf("second federated request provenance = %+v", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("federated cache hit labels differ from union-find truth")
	}
	if s1 := top.Nodes[1].Stats(); s1.PeerCacheHits != 1 {
		t.Fatalf("node 1 peer_cache_hits = %d, want 1", s1.PeerCacheHits)
	}
}

func TestFederateDeadOwnerDegradesToLocal(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	for _, n := range top.Nodes {
		n.cfg.Mode = ModeFederate
	}
	g := graphOwnedBy(t, top, 1)
	top.Nodes[1].Stop()
	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("federated Submit with dead owner: %v", err)
	}
	if res.PeerCacheHit || res.Served != 0 {
		t.Fatalf("provenance = %+v, want local compute", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("labels differ from union-find truth")
	}
	if s0 := top.Nodes[0].Stats(); s0.PeerErrors == 0 {
		t.Fatal("peer_errors = 0, want > 0")
	}
}

func TestNonOwnerSingleFlight(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	g := graphOwnedBy(t, top, 1)
	want := wantLabels(g)
	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
			if err != nil {
				errs[c] = err
				return
			}
			if !labelsEq(res.Labels, want) {
				errs[c] = errors.New("labels mismatch")
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	// Every request proxies, and the owner's service collapses the
	// identical requests onto one engine run: the rest join its flight or
	// hit the cache it filled.
	if s0 := top.Nodes[0].Stats(); s0.PeerCalls != clients || s0.Proxied != clients {
		t.Fatalf("peer_calls=%d proxied=%d, want %d each", s0.PeerCalls, s0.Proxied, clients)
	}
	owner := top.Nodes[1].Service().Stats()
	if owner.Completed != 1 || owner.Coalesced+owner.CacheHits != clients-1 {
		t.Fatalf("owner completed=%d coalesced=%d cache_hits=%d, want one run serving %d clients",
			owner.Completed, owner.Coalesced, owner.CacheHits, clients)
	}
	if local := top.Nodes[0].Service().Stats(); local.Completed != 0 {
		t.Fatalf("entry replica computed %d jobs, want 0", local.Completed)
	}
}

func TestHTTPPeerTransport(t *testing.T) {
	// Two real services, two nodes, wired over real HTTP.
	svcA := service.New(service.Config{})
	defer svcA.Close()
	svcB := service.New(service.Config{})
	defer svcB.Close()
	members := []int{0, 1}
	nodeA, err := NewNode(svcA, Config{Self: 0, Members: members, Mode: ModeProxy})
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := NewNode(svcB, Config{Self: 1, Members: members, Mode: ModeProxy})
	if err != nil {
		t.Fatal(err)
	}
	muxB := http.NewServeMux()
	RegisterPeerHandlers(muxB, nodeB, 1<<20)
	srvB := httptest.NewServer(muxB)
	defer srvB.Close()
	nodeA.SetPeers(map[int]Peer{1: NewHTTPPeer(srvB.URL, srvB.Client())})

	var g *graph.Graph
	for n := 2; n < 2000; n++ {
		if c := graph.Path(n); nodeA.Owner(c.Fingerprint()) == 1 {
			g = c
			break
		}
	}
	if g == nil {
		t.Fatal("no graph owned by member 1")
	}

	res, err := nodeA.Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit over HTTP peer: %v", err)
	}
	if !res.Proxied || res.Served != 1 {
		t.Fatalf("provenance = %+v, want proxied to 1", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("HTTP-proxied labels differ from union-find truth")
	}

	// Cache federation over HTTP: get (miss), put, get (hit).
	peer := NewHTTPPeer(srvB.URL, srvB.Client())
	fp := graph.Path(5).Fingerprint()
	if _, ok, err := peer.CacheGet(context.Background(), fp, gcacc.EngineGCA); err != nil || ok {
		t.Fatalf("CacheGet on empty cache = ok=%v err=%v", ok, err)
	}
	seed := &service.Result{Labels: []int{0, 0, 0, 0, 0}, Components: 1, Engine: "gca"}
	if err := peer.CachePut(context.Background(), fp, gcacc.EngineGCA, seed); err != nil {
		t.Fatalf("CachePut: %v", err)
	}
	got, ok, err := peer.CacheGet(context.Background(), fp, gcacc.EngineGCA)
	if err != nil || !ok {
		t.Fatalf("CacheGet after put = ok=%v err=%v", ok, err)
	}
	if !labelsEq(got.Labels, seed.Labels) || !got.Cached {
		t.Fatalf("federated cache round-trip = %+v", got)
	}

	// Batch over HTTP.
	items := []BatchItem{{Graph: sp(graph.Path(6))}, {Graph: sp(graph.Star(7))}}
	outs, err := peer.ComputeBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("ComputeBatch: %v", err)
	}
	for i, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("item %d: %v", i, oc.Err)
		}
		if !labelsEq(oc.Result.Labels, sparse.ConnectedComponentsUnionFind(items[i].Graph)) {
			t.Fatalf("item %d labels mismatch", i)
		}
	}

	// A stopped node answers 503, which the caller treats as a dead peer.
	nodeB.Stop()
	if _, err := nodeA.Submit(context.Background(), service.Request{Graph: g, NoCache: true}); err != nil {
		t.Fatalf("Submit with stopped HTTP peer should fall back locally: %v", err)
	}
	if s := nodeA.Stats(); s.FallbackLocal != 1 {
		t.Fatalf("fallback_local = %d, want 1", s.FallbackLocal)
	}
}

func TestStatusOf(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 200},
		{service.ErrQueueFull, 429},
		{ErrBatchBusy, 429},
		{service.ErrTooLarge, 413},
		{ErrBatchTooLarge, 413},
		{service.ErrDenseOnly, 422},
		{service.ErrClosed, 503},
		{ErrNodeDown, 503},
		{ErrPeerDown, 503},
		{ErrEmptyBatch, 400},
		{service.ErrInvalidEngine, 400},
		{service.ErrNilGraph, 400},
		{service.ErrEnginePanic, 500},
		{context.Canceled, 499},
		{fmt.Errorf("wrapped: %w", context.Canceled), 499},
		{fmt.Errorf("wrapped: %w", service.ErrQueueFull), 429},
		{context.DeadlineExceeded, 504},
		{&StatusError{Code: 422, Msg: "x"}, 422},
		{errors.New("mystery"), 500},
	} {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestWireItemRoundTrip(t *testing.T) {
	g := sparse.Star(9)
	wi, err := EncodeWireItem(BatchItem{Graph: g, Engine: gcacc.EnginePRAM, NoCache: true})
	if err != nil {
		t.Fatalf("EncodeWireItem: %v", err)
	}
	it := DecodeWireItem(wi)
	if it.Err != nil {
		t.Fatalf("DecodeWireItem: %v", it.Err)
	}
	if !it.Graph.Equal(g) || it.Engine != gcacc.EnginePRAM || !it.NoCache {
		t.Fatalf("round trip = %+v", it)
	}

	bad := DecodeWireItem(WireItem{Graph: "not a graph"})
	if bad.Err == nil || StatusOf(bad.Err) != 400 {
		t.Fatalf("malformed graph should decode to a 400 item error, got %v", bad.Err)
	}
	badEng := DecodeWireItem(WireItem{Graph: "2 1\n0 1\n", Engine: "warp"})
	if badEng.Err == nil || StatusOf(badEng.Err) != 400 {
		t.Fatalf("unknown engine should decode to a 400 item error, got %v", badEng.Err)
	}
}

// TestDenseRequestMatchesSparseTwin pins the input-only dense field of
// service.Request: a request carrying only Graph is converted where it
// enters, so it gets the same cache key, owner and labels as the same
// graph sent as Sparse — in process and over HTTPPeer.
func TestDenseRequestMatchesSparseTwin(t *testing.T) {
	ctx := context.Background()
	g := graph.Grid(5, 6)
	want := wantLabels(g)
	check := func(where string, res *service.Result, err error, cached bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !labelsEq(res.Labels, want) || res.Cached != cached {
			t.Fatalf("%s: cached=%v labels=%v, want cached=%v labels=%v", where, res.Cached, res.Labels, cached, want)
		}
	}

	top := testTopology(t, 2, ModeProxy)
	owner := top.Nodes[0].Owner(g.Fingerprint())
	res, err := top.Nodes[0].Submit(ctx, service.Request{Graph: g})
	check("in-process dense", res.Result, err, false)
	if res.Owner != owner {
		t.Fatalf("dense request owned by %d, the dense fingerprint places it at %d", res.Owner, owner)
	}
	res, err = top.Nodes[1].Submit(ctx, service.Request{Sparse: sp(g)})
	check("in-process sparse twin", res.Result, err, true)
	if _, ok := top.Nodes[owner].Service().CacheLookup(g.Fingerprint(), gcacc.EngineGCA); !ok {
		t.Fatal("the owner's cache has no entry under the dense fingerprint")
	}

	svc := service.New(service.Config{})
	defer svc.Close()
	node, err := NewNode(svc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	RegisterPeerHandlers(mux, node, 1<<20)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	peer := NewHTTPPeer(srv.URL, srv.Client())
	sres, err := peer.Compute(ctx, service.Request{Graph: g})
	check("HTTPPeer dense", sres, err, false)
	sres, err = peer.Compute(ctx, service.Request{Sparse: sp(g)})
	check("HTTPPeer sparse twin", sres, err, true)
}
