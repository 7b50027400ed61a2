package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
	"gcacc/internal/stream"
)

// workload is one traffic mix against fresh gca-serve processes.
type workload struct {
	name     string
	replicas int
	// rate is the fixed open-loop rate in requests per second. It keeps
	// a request in flight about a quarter of the time, so few requests
	// overlap: on 2 cores an overlapped request runs slower, and a
	// percentile that falls between the lone and the overlapped latency
	// swings from run to run.
	rate float64
	// readShare is the fraction of requests that are reads.
	readShare float64
	plan      func(seed int64) *plan
}

// plan is one workload's inputs, generated from the seed before any
// server starts, with the answers the oracle expects.
type plan struct {
	// preload runs during set-up, after the servers answer /healthz.
	preload func(ctx context.Context, f *fleet) error
	// warm returns warm-up requests, op the measured ones; both are pure
	// functions of the index, so every run of a seed sends the same
	// sequence.
	warm, op func(i int) *request
	// finish checks what only the end of a run can show and returns the
	// number of wrong answers it found.
	finish func(ctx context.Context, f *fleet) (int, error)
	// inproc times each layer's public functions on the workload's own
	// inputs, outside the server, appending one span per call.
	inproc func(ctx context.Context, t *tracer) error
	// matrixMiB is the dense adjacency matrix one read request builds.
	matrixMiB float64
}

var workloads = []workload{
	{
		// The paper's engine takes most of a request; parse, fingerprint
		// and encode are a few per cent. 4096 inputs cycle through the
		// 512-entry result cache, so every request misses, fills and evicts.
		name: "oneshot-gca", replicas: 1, rate: 40, readShare: 1,
		plan: func(seed int64) *plan {
			return oneShotPlan(seed, gcacc.EngineGCA, 128, 256, 4096, 1)
		},
	},
	{
		// The dense representation dominates: parsing into an 8 MiB bit
		// matrix, fingerprinting it and converting it back to an edge list
		// cost far more than the Liu–Tarjan engine. 640 inputs > 512 cache
		// entries, so every request misses.
		name: "oneshot-sparse", replicas: 1, rate: 10, readShare: 1,
		plan: func(seed int64) *plan {
			return oneShotPlan(seed, gcacc.EngineLiuTarjan, 8192, 16384, 640, 1)
		},
	},
	{
		// Two replicas in proxy mode; every graph is computed during
		// set-up, so no engine runs while timing: HTTP, parse, fingerprint,
		// routing, the cache hit and, for keys the entry replica does not
		// own, the peer hop.
		name: "cluster-hot", replicas: 2, rate: 200, readShare: 1,
		plan: func(seed int64) *plan {
			return oneShotPlan(seed, gcacc.EngineGCA, 512, 1024, 32, 2)
		},
	},
	{
		// One named graph under appends, queries and deletes: writes share
		// the per-graph lock with reads, and each delete makes the next
		// query run a full Liu–Tarjan recompute.
		name: "stream-churn", replicas: 1, rate: 100, readShare: float64(blockQueries) / blockOps,
		plan: churnPlan,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// oneShotReply is the body of POST /v1/components, as gca-serve writes
// it (owner and served appear behind a multi-replica ring).
type oneShotReply struct {
	N           int    `json:"n"`
	Components  int    `json:"components"`
	Engine      string `json:"engine"`
	Cached      bool   `json:"cached"`
	Coalesced   bool   `json:"coalesced"`
	Generations int    `json:"generations,omitempty"`
	WaitUS      int64  `json:"wait_us"`
	RunUS       int64  `json:"run_us"`
	Labels      []int  `json:"labels,omitempty"`
	Owner       int    `json:"owner"`
	Served      int    `json:"served"`
	Proxied     bool   `json:"proxied,omitempty"`
}

// oneShotPlan builds distinct random graphs with n vertices and about m
// edges, plus disjoint ones for the warm-up, and sends each as one
// labelled POST /v1/components. With more than one replica every input
// is computed once during set-up, at its shard owner.
func oneShotPlan(seed int64, eng gcacc.Engine, n, m, distinct, replicas int) *plan {
	rng := rand.New(rand.NewSource(seed))
	type input struct {
		body  []byte
		want  answer
		owner int
	}
	var ring *cluster.Ring
	if replicas > 1 {
		members := make([]int, replicas)
		for i := range members {
			members[i] = i
		}
		ring = cluster.NewRing(members, 0)
	}
	gen := func(k int) []input {
		in := make([]input, k)
		for i := range in {
			e := randomGraph(rng, n, m)
			in[i] = input{body: edgeListBody(n, e), want: oracleAnswer(n, e)}
			if ring != nil {
				g, err := graph.ReadEdgeList(bytes.NewReader(in[i].body))
				if err != nil {
					panic(err) // edgeListBody writes what ReadEdgeList reads
				}
				in[i].owner = ring.Owner(g.Fingerprint())
			}
		}
		return in
	}
	inputs := gen(distinct)
	path := "/v1/components?engine=" + eng.String()
	send := func(x input, replica int) *request {
		return &request{
			kind: opRead, method: http.MethodPost, replica: replica, path: path, body: x.body,
			check: func(hdr http.Header, body []byte) (reply, error) {
				var r oneShotReply
				if err := json.Unmarshal(body, &r); err != nil {
					return reply{}, err
				}
				if err := checkLabels(n, r.Components, r.Labels, x.want); err != nil {
					return reply{}, err
				}
				owner := -1
				if h := hdr.Get(cluster.OwnerHeader); h != "" {
					owner, _ = strconv.Atoi(h) // a malformed header reads as no owner
				}
				return reply{waitUS: r.WaitUS, runUS: r.RunUS, cached: r.Cached, owner: owner}, nil
			},
		}
	}
	p := &plan{matrixMiB: float64(n) * float64(n) / 8 / (1 << 20)}
	// Behind a ring, each input enters at its owner and at the other
	// replica on alternate visits, as behind a balancer over two
	// replicas. Half the requests take the peer hop whatever placement
	// the seed's graphs get, so p10 stays in the local latency mode and
	// p90 in the proxied one.
	p.op = func(i int) *request {
		k := i % len(inputs)
		x, replica := inputs[k], 0
		if ring != nil {
			replica = (x.owner + (i/len(inputs)+k)%2) % replicas
		}
		return send(x, replica)
	}
	p.warm = p.op
	if ring == nil {
		// A miss workload warms up on inputs it never measures, so no
		// measured request finds its graph cached.
		warm := gen(64)
		p.warm = func(i int) *request { return send(warm[i%len(warm)], 0) }
	} else {
		// Computed anywhere but at its owner, a graph would outlast
		// gca-serve's 100 ms peer budget: the owner would cancel it and the
		// entry replica finish it. Two clients share the inputs, so set-up
		// time does not depend on how the ring splits them.
		p.preload = func(ctx context.Context, f *fleet) error {
			lc := &loadClient{hc: f.ctl, bases: f.bases()}
			var (
				next atomic.Int64
				errs [2]error
				wg   sync.WaitGroup
			)
			for w := range errs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := int(next.Add(1)) - 1; k < len(inputs) && errs[w] == nil; k = int(next.Add(1)) - 1 {
						errs[w] = lc.do(ctx, send(inputs[k], inputs[k].owner), time.Now(), false).err
					}
				}(w)
			}
			wg.Wait()
			if err := errors.Join(errs[:]...); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			return nil
		}
	}
	// The pass follows the server's request path: parse, fingerprint,
	// route, convert for a sparse engine, run, encode. Workers: 1 matches
	// the server, whose 2 simulator goroutines are split over 4 workers.
	p.inproc = func(ctx context.Context, t *tracer) error {
		for i := 0; i < min(len(inputs), inprocInputs(n)); i++ {
			root := t.begin(i, "inproc", 0)
			sp := t.begin(i, "graph.parse", root)
			g, err := graph.ReadEdgeList(bytes.NewReader(inputs[i].body))
			t.end(sp)
			if err != nil {
				return err
			}
			sp = t.begin(i, "graph.fingerprint", root)
			fp := g.Fingerprint()
			t.end(sp)
			if ring != nil {
				sp = t.begin(i, "cluster.route", root)
				_ = ring.Owner(fp)
				t.end(sp)
			}
			opt := gcacc.Options{Engine: eng, Workers: 1}
			var rep *gcacc.Report
			if eng.Sparse() {
				sp = t.begin(i, "sparse.from_dense", root)
				sg := sparse.FromDense(g)
				t.end(sp)
				sp = t.begin(i, "engine.direct", root)
				rep, err = gcacc.ConnectedComponentsSparse(ctx, sg, opt)
			} else {
				sp = t.begin(i, "engine.direct", root)
				rep, err = gcacc.ConnectedComponentsWithContext(ctx, g, opt)
			}
			t.end(sp)
			if err != nil {
				return err
			}
			t.generations = append(t.generations, float64(rep.Generations))
			sp = t.begin(i, "http.encode", root)
			_, err = json.Marshal(oneShotReply{N: n, Components: rep.Components, Engine: eng.String(),
				Generations: rep.Generations, Labels: rep.Labels})
			t.end(sp)
			t.end(root)
			if err != nil {
				return err
			}
		}
		if ring != nil {
			return peerHops(ctx, t, ring, inputs[0].body, eng)
		}
		return nil
	}
	return p
}

// inprocInputs bounds the in-process pass to about a second of engine
// time per workload.
func inprocInputs(n int) int {
	switch {
	case n <= 128:
		return 128
	case n <= 512:
		return 8
	default:
		return 32
	}
}

// peerHops times cluster.HTTPPeer.Compute, the replica-to-replica call
// of proxy mode, against the owner of one hot graph.
func peerHops(ctx context.Context, t *tracer, ring *cluster.Ring, body []byte, eng gcacc.Engine) error {
	g, err := graph.ReadEdgeList(bytes.NewReader(body))
	if err != nil {
		return err
	}
	peer := cluster.NewHTTPPeer(t.client.bases[ring.Owner(g.Fingerprint())], t.client.hc)
	for i := 0; i < 32; i++ {
		sp := t.begin(i, "cluster.peer_hop", 0)
		_, err := peer.Compute(ctx, service.Request{Graph: g, Engine: eng})
		t.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// Stream-churn's operation mix, in blocks of blockOps operations: 84 %
// appends of appendEdges edges, 14 % label-free queries and 2 % deletes
// of one initial edge, placed so that a query follows the delete inside
// its block. Fixed counts per block keep the share of recomputing
// queries — the upper latency mode that p90 lands in — the same for
// every seed.
const (
	blockOps     = 50
	blockQueries = 7
	appendEdges  = 64
	churnN       = 100_000
	churnM       = 200_000
	churnGraph   = "churn"
	// preloadBatch keeps each set-up batch under gca-serve's default
	// -stream-max-batch of 65536 edges.
	preloadBatch = 50_000
)

type churnLog struct {
	mu   sync.Mutex
	muts []mutation
	obs  []observation
}

func churnPlan(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	initial := randomGraph(rng, churnN, churnM)
	deletes := rng.Perm(len(initial))
	log := &churnLog{}
	base := "/v1/graphs/" + churnGraph
	preloadEpoch := uint64((len(initial) + preloadBatch - 1) / preloadBatch)

	layout := func(block int) []byte {
		r := rand.New(rand.NewSource(seed ^ int64(block+1)*0x5851f42d4c957f2d))
		l := make([]byte, blockOps)
		for i := range l {
			switch {
			case i == 0:
				l[i] = 'd'
			case i <= blockQueries:
				l[i] = 'q'
			default:
				l[i] = 'a'
			}
		}
		r.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		d, lastQ := bytes.IndexByte(l, 'd'), bytes.LastIndexByte(l, 'q')
		if d > lastQ {
			l[d], l[lastQ] = l[lastQ], l[d]
		}
		return l
	}
	mutate := func(add bool, edges []sparse.Edge) *request {
		var body bytes.Buffer
		writeEdges(&body, edges)
		method := http.MethodPost
		if !add {
			method = http.MethodDelete
		}
		return &request{
			kind: opWrite, method: method, path: base + "/edges", body: body.Bytes(),
			check: func(_ http.Header, b []byte) (reply, error) {
				var m stream.Mutation
				if err := json.Unmarshal(b, &m); err != nil {
					return reply{}, err
				}
				if m.Applied+m.Ignored != len(edges) || (!add && m.Applied != 1) {
					return reply{}, fmt.Errorf("wrong answer: batch of %d applied %d, ignored %d", len(edges), m.Applied, m.Ignored)
				}
				log.mu.Lock()
				log.muts = append(log.muts, mutation{epoch: m.Epoch, add: add, edges: edges})
				log.mu.Unlock()
				return reply{owner: -1}, nil
			},
		}
	}
	query := &request{
		kind: opRead, method: http.MethodGet, path: base + "/components?labels=0",
		check: func(_ http.Header, b []byte) (reply, error) {
			var s stream.Snapshot
			if err := json.Unmarshal(b, &s); err != nil {
				return reply{}, err
			}
			log.mu.Lock()
			log.obs = append(log.obs, observation{epoch: s.Epoch, components: s.Components})
			log.mu.Unlock()
			return reply{owner: -1, recomputed: s.Recomputed, rounds: s.Rounds}, nil
		},
	}
	op := func(i int) *request {
		switch layout(i / blockOps)[i%blockOps] {
		case 'q':
			return query
		case 'd':
			return mutate(false, []sparse.Edge{initial[deletes[(i/blockOps)%len(deletes)]]})
		default:
			// Appends never re-add an initial edge, so a delete stays
			// deleted and every delete forces a recompute.
			r := rand.New(rand.NewSource(seed ^ int64(i+1)*0x2545f4914f6cdd1d))
			edges := make([]sparse.Edge, 0, appendEdges)
			for len(edges) < appendEdges {
				if e := randomEdge(r, churnN); !hasEdge(initial, e) {
					edges = append(edges, e)
				}
			}
			return mutate(true, edges)
		}
	}

	// The preload bodies are written once, so set-up times the server's
	// work and not the benchmark's formatting.
	var batches [][]byte
	for lo := 0; lo < len(initial); lo += preloadBatch {
		var body bytes.Buffer
		writeEdges(&body, initial[lo:min(lo+preloadBatch, len(initial))])
		batches = append(batches, body.Bytes())
	}

	return &plan{
		warm: op,
		op:   op,
		preload: func(ctx context.Context, f *fleet) error {
			url := f.servers[0].base + base
			if err := f.call(ctx, http.MethodPut, url+"?n="+strconv.Itoa(churnN), nil, nil); err != nil {
				return err
			}
			for _, body := range batches {
				if err := f.call(ctx, http.MethodPost, url+"/edges", body, nil); err != nil {
					return err
				}
			}
			return nil
		},
		finish: func(ctx context.Context, f *fleet) (int, error) {
			log.mu.Lock()
			wrong, live := streamReplay(churnN, initial, preloadEpoch, log.muts, log.obs)
			log.mu.Unlock()
			var s stream.Snapshot
			if err := f.call(ctx, http.MethodGet, f.servers[0].base+base+"/components", nil, &s); err != nil {
				return wrong, err
			}
			if err := checkLabels(churnN, s.Components, s.Labels, oracleAnswer(churnN, edgesOf(live))); err != nil {
				wrong++
			}
			return wrong, nil
		},
		// The pass times the engine alone and the stream layer's whole
		// recompute, which first rebuilds the edge list from the live set,
		// on the graph as the measured phase left it.
		inproc: func(ctx context.Context, t *tracer) error {
			log.mu.Lock()
			_, live := streamReplay(churnN, initial, preloadEpoch, log.muts, log.obs)
			log.mu.Unlock()
			edges := edgesOf(live)
			g := sparse.New(churnN)
			for _, e := range edges {
				g.AddEdge(int(e.U), int(e.V))
			}
			st, err := stream.NewState(churnN, stream.Config{Engine: gcacc.EngineLiuTarjan})
			if err != nil {
				return err
			}
			if _, err := st.Append(ctx, edges, stream.NoEpoch); err != nil {
				return err
			}
			for i := 0; i < 5; i++ {
				sp := t.begin(i, "engine.direct", 0)
				rep, err := gcacc.ConnectedComponentsSparse(ctx, g, gcacc.Options{Engine: gcacc.EngineLiuTarjan})
				t.end(sp)
				if err != nil {
					return err
				}
				t.generations = append(t.generations, float64(rep.Generations))
				sp = t.begin(i, "stream.recompute", 0)
				err = st.Recompute(ctx)
				t.end(sp)
				if err != nil {
					return err
				}
			}
			for i := 0; i < 1000; i++ {
				sp := t.begin(i, "http.encode", 0)
				_, err := json.Marshal(stream.Snapshot{Epoch: uint64(i), Components: i, Engine: "unionfind"})
				t.end(sp)
				if err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func edgesOf(set map[sparse.Edge]struct{}) []sparse.Edge {
	out := make([]sparse.Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	return out
}
