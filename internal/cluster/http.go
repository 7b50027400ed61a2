package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gcacc"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// OwnerHeader is set on every cluster-routed response so clients and
// load balancers can observe placement: the member id of the shard
// owner of the request's fingerprint.
const OwnerHeader = "X-GCA-Shard-Owner"

// StatusError is an error that survived an HTTP hop: the peer transport
// reconstructs the remote status so per-item outcomes keep their codes
// end to end. StatusOf honours it first.
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("cluster: peer answered status %d", e.Code)
	}
	return e.Msg
}

// StatusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected before the response was written. The
// stdlib has no constant for it. Nobody receives the response body; the
// code exists so access logs and metrics can tell an abandoned request
// from a server fault (500) or a served timeout (504).
const StatusClientClosedRequest = 499

// StatusOf maps cluster- and serving-layer errors onto HTTP status
// codes. It is gca-serve's contract for single requests and the batch
// tier's per-item contract: a full queue means 429, not queueing forever.
func StatusOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, ErrBatchBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrTooLarge), errors.Is(err, ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, service.ErrDenseOnly):
		// Well-formed request, but the named engine cannot process an
		// input this size: 422, so clients can tell "pick a sparse
		// engine" apart from "shrink the graph" (413).
		return http.StatusUnprocessableEntity
	case errors.Is(err, service.ErrClosed), errors.Is(err, ErrNodeDown), errors.Is(err, ErrPeerDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, service.ErrInvalidEngine), errors.Is(err, service.ErrNilGraph),
		errors.Is(err, ErrEmptyBatch):
		return http.StatusBadRequest
	case errors.Is(err, service.ErrEnginePanic):
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// WireItem is one batch item on the wire — the public
// POST /v1/components/batch body and the internal peer sub-batch share
// this encoding. The graph travels in the text formats of
// internal/graph/io.go, embedded as a JSON string, and is read with
// ParseGraph.
type WireItem struct {
	Graph     string `json:"graph"`
	Format    string `json:"format,omitempty"` // edges (default) | matrix
	Engine    string `json:"engine,omitempty"` // default gca
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"nocache,omitempty"`
}

// WireBatchRequest is the JSON body of a batch submission.
type WireBatchRequest struct {
	Items []WireItem `json:"items"`
}

// WireOutcome is one item's result-or-error on the wire. Status is a
// per-item HTTP code: the enclosing response is 200 even when items
// fail — a batch is never all-or-nothing.
type WireOutcome struct {
	Status        int    `json:"status"`
	Error         string `json:"error,omitempty"`
	Owner         int    `json:"owner"`
	Served        int    `json:"served"`
	Proxied       bool   `json:"proxied,omitempty"`
	PeerCacheHit  bool   `json:"peer_cache_hit,omitempty"`
	FallbackLocal bool   `json:"fallback_local,omitempty"`

	N           int    `json:"n,omitempty"`
	Components  int    `json:"components,omitempty"`
	Engine      string `json:"engine,omitempty"`
	Cached      bool   `json:"cached,omitempty"`
	Coalesced   bool   `json:"coalesced,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
	Generations int    `json:"generations,omitempty"`
	PRAMSteps   int    `json:"pram_steps,omitempty"`
	WaitUS      int64  `json:"wait_us"`
	RunUS       int64  `json:"run_us"`
	Labels      []int  `json:"labels,omitempty"`
}

// WireBatchResponse is the JSON body of a batch answer, item outcomes
// in request order.
type WireBatchResponse struct {
	Items []WireOutcome `json:"items"`
}

// DecodeWireItem parses one wire item into a BatchItem. Parse failures
// do not fail the call: they land in BatchItem.Err as a 400
// StatusError, so the item fails alone at outcome time.
func DecodeWireItem(it WireItem) BatchItem {
	out := BatchItem{
		Timeout: time.Duration(it.TimeoutMS) * time.Millisecond,
		NoCache: it.NoCache,
	}
	if it.Engine != "" {
		eng, err := gcacc.ParseEngine(it.Engine)
		if err != nil {
			out.Err = &StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
			return out
		}
		out.Engine = eng
	}
	g, err := ParseGraph(strings.NewReader(it.Graph), it.Format)
	if err != nil {
		out.Err = &StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
		return out
	}
	out.Graph = g
	return out
}

// ParseGraph reads a request graph in the "edges" (the default) or
// "matrix" text format into the serving tier's one representation, the
// sparse edge list. An edge list never touches an n² structure; a
// matrix body is n² bytes already, so it goes through the dense parser.
func ParseGraph(r io.Reader, format string) (*sparse.Graph, error) {
	switch format {
	case "", "edges":
		return sparse.ReadEdgeStream(r)
	case "matrix":
		g, err := graph.ReadMatrix(r)
		if err != nil {
			return nil, err
		}
		return sparse.FromDense(g), nil
	default:
		return nil, fmt.Errorf("unknown format %q (edges|matrix)", format)
	}
}

// EncodeWireItem serializes a BatchItem for a peer sub-batch (always
// edge-list format; a BatchItem built by the node has a parsed graph).
func EncodeWireItem(it BatchItem) (WireItem, error) {
	var buf bytes.Buffer
	if err := sparse.WriteEdgeStream(&buf, it.Graph); err != nil {
		return WireItem{}, err
	}
	return WireItem{
		Graph:     buf.String(),
		Engine:    it.Engine.String(),
		TimeoutMS: it.Timeout.Milliseconds(),
		NoCache:   it.NoCache,
	}, nil
}

// EncodeOutcome serializes one item outcome, including labels when
// withLabels is set.
func EncodeOutcome(oc ItemOutcome, withLabels bool) WireOutcome {
	if oc.Err != nil {
		return WireOutcome{Status: StatusOf(oc.Err), Error: oc.Err.Error()}
	}
	r := oc.Result
	w := WireOutcome{
		Status:        http.StatusOK,
		Owner:         r.Owner,
		Served:        r.Served,
		Proxied:       r.Proxied,
		PeerCacheHit:  r.PeerCacheHit,
		FallbackLocal: r.FallbackLocal,
		N:             len(r.Labels),
		Components:    r.Components,
		Engine:        r.Engine,
		Cached:        r.Cached,
		Coalesced:     r.Coalesced,
		Degraded:      r.Degraded,
		Generations:   r.Generations,
		PRAMSteps:     r.PRAMSteps,
		WaitUS:        r.Wait.Microseconds(),
		RunUS:         r.Run.Microseconds(),
	}
	if withLabels {
		w.Labels = r.Labels
	}
	return w
}

// DecodeOutcome reconstructs an item outcome from the wire; a non-200
// item becomes a StatusError so StatusOf round-trips.
func DecodeOutcome(w WireOutcome) ItemOutcome {
	if w.Status != http.StatusOK {
		return ItemOutcome{Err: &StatusError{Code: w.Status, Msg: w.Error}}
	}
	return ItemOutcome{Result: &Result{
		Result: &service.Result{
			Labels:      w.Labels,
			Components:  w.Components,
			Engine:      w.Engine,
			Generations: w.Generations,
			PRAMSteps:   w.PRAMSteps,
			Cached:      w.Cached,
			Coalesced:   w.Coalesced,
			Degraded:    w.Degraded,
			Wait:        time.Duration(w.WaitUS) * time.Microsecond,
			Run:         time.Duration(w.RunUS) * time.Microsecond,
		},
		Owner:         w.Owner,
		Served:        w.Served,
		Proxied:       w.Proxied,
		PeerCacheHit:  w.PeerCacheHit,
		FallbackLocal: w.FallbackLocal,
	}}
}

// RegisterPeerHandlers mounts the peer-to-peer RPC surface on a mux:
//
//	POST /internal/v1/compute?engine=E&nocache=1   body: edge list
//	GET  /internal/v1/cache/{fp}?engine=E          fp: 64 hex chars
//	PUT  /internal/v1/cache/{fp}?engine=E          body: service.Result JSON
//	POST /internal/v1/batch                        body: WireBatchRequest
//
// The handlers serve the local node directly (no re-routing, so a
// misdirected peer call cannot loop) and answer 503 while the node is
// stopped.
func RegisterPeerHandlers(mux *http.ServeMux, n *Node, maxBody int64) {
	mux.HandleFunc("POST /internal/v1/compute", func(w http.ResponseWriter, r *http.Request) {
		if n.Stopped() {
			httpError(w, http.StatusServiceUnavailable, ErrNodeDown)
			return
		}
		n.metrics.peerServed.Inc()
		eng, err := parseEngineParam(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		g, err := sparse.ReadEdgeStream(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		res, err := n.svc.Submit(r.Context(), service.Request{
			Sparse:  g,
			Engine:  eng,
			NoCache: r.URL.Query().Get("nocache") == "1",
		})
		if err != nil {
			httpError(w, StatusOf(err), err)
			return
		}
		httpJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /internal/v1/cache/{fp}", func(w http.ResponseWriter, r *http.Request) {
		if n.Stopped() {
			httpError(w, http.StatusServiceUnavailable, ErrNodeDown)
			return
		}
		n.metrics.peerServed.Inc()
		fp, eng, err := parseCacheParams(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		res, ok := n.svc.CacheLookup(fp, eng)
		if !ok {
			httpError(w, http.StatusNotFound, errors.New("cluster: cache miss"))
			return
		}
		httpJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("PUT /internal/v1/cache/{fp}", func(w http.ResponseWriter, r *http.Request) {
		if n.Stopped() {
			httpError(w, http.StatusServiceUnavailable, ErrNodeDown)
			return
		}
		n.metrics.peerServed.Inc()
		fp, eng, err := parseCacheParams(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		var res service.Result
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&res); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		n.svc.CacheInsert(fp, eng, &res)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /internal/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if n.Stopped() {
			httpError(w, http.StatusServiceUnavailable, ErrNodeDown)
			return
		}
		n.metrics.peerServed.Inc()
		n.metrics.peerBatches.Inc()
		var req WireBatchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		items := make([]BatchItem, len(req.Items))
		for i, wi := range req.Items {
			items[i] = DecodeWireItem(wi)
		}
		outcomes := n.localBatch(r.Context(), items)
		resp := WireBatchResponse{Items: make([]WireOutcome, len(outcomes))}
		for i, oc := range outcomes {
			resp.Items[i] = EncodeOutcome(oc, true)
		}
		httpJSON(w, http.StatusOK, resp)
	})
}

// parseEngineParam reads ?engine= (default gca).
func parseEngineParam(r *http.Request) (gcacc.Engine, error) {
	name := r.URL.Query().Get("engine")
	if name == "" {
		name = "gca"
	}
	return gcacc.ParseEngine(name)
}

// parseCacheParams reads the {fp} path wildcard and ?engine=.
func parseCacheParams(r *http.Request) ([32]byte, gcacc.Engine, error) {
	var fp [32]byte
	raw, err := hex.DecodeString(r.PathValue("fp"))
	if err != nil || len(raw) != 32 {
		return fp, 0, fmt.Errorf("cluster: fingerprint must be 64 hex chars")
	}
	copy(fp[:], raw)
	eng, err := parseEngineParam(r)
	if err != nil {
		return fp, 0, err
	}
	return fp, eng, nil
}

// HTTPPeer is the HTTP transport: a Peer that calls another replica's
// /internal/v1 surface. Any transport or non-2xx failure surfaces as an
// error, which the calling node treats as a dead peer (fallback to
// local compute) — never as a wrong answer.
type HTTPPeer struct {
	base   string
	client *http.Client
}

// NewHTTPPeer builds a peer client for a base URL like
// "http://host:8080" (trailing slash tolerated). A nil client selects
// http.DefaultClient; per-call deadlines ride on the caller's context.
func NewHTTPPeer(base string, client *http.Client) *HTTPPeer {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPPeer{base: strings.TrimRight(base, "/"), client: client}
}

// Compute implements Peer.
func (p *HTTPPeer) Compute(ctx context.Context, req service.Request) (*service.Result, error) {
	g := req.Input()
	if g == nil {
		return nil, service.ErrNilGraph
	}
	var buf bytes.Buffer
	if err := sparse.WriteEdgeStream(&buf, g); err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/internal/v1/compute?engine=%s", p.base, req.Engine)
	if req.NoCache {
		url += "&nocache=1"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &buf)
	if err != nil {
		return nil, err
	}
	var res service.Result
	if err := p.do(hreq, http.StatusOK, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// CacheGet implements Peer.
func (p *HTTPPeer) CacheGet(ctx context.Context, fp [32]byte, engine gcacc.Engine) (*service.Result, bool, error) {
	url := fmt.Sprintf("%s/internal/v1/cache/%s?engine=%s", p.base, hex.EncodeToString(fp[:]), engine)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	var res service.Result
	err = p.do(hreq, http.StatusOK, &res)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return &res, true, nil
}

// CachePut implements Peer.
func (p *HTTPPeer) CachePut(ctx context.Context, fp [32]byte, engine gcacc.Engine, res *service.Result) error {
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	url := fmt.Sprintf("%s/internal/v1/cache/%s?engine=%s", p.base, hex.EncodeToString(fp[:]), engine)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	return p.do(hreq, http.StatusNoContent, nil)
}

// ComputeBatch implements Peer.
func (p *HTTPPeer) ComputeBatch(ctx context.Context, items []BatchItem) ([]ItemOutcome, error) {
	req := WireBatchRequest{Items: make([]WireItem, len(items))}
	for i, it := range items {
		wi, err := EncodeWireItem(it)
		if err != nil {
			return nil, err
		}
		req.Items[i] = wi
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.base+"/internal/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var resp WireBatchResponse
	if err := p.do(hreq, http.StatusOK, &resp); err != nil {
		return nil, err
	}
	if len(resp.Items) != len(items) {
		return nil, fmt.Errorf("cluster: peer answered %d outcomes for %d items", len(resp.Items), len(items))
	}
	out := make([]ItemOutcome, len(resp.Items))
	for i, wo := range resp.Items {
		out[i] = DecodeOutcome(wo)
	}
	return out, nil
}

// do runs one peer request, decoding into v on the wanted status and
// into a StatusError otherwise.
func (p *HTTPPeer) do(req *http.Request, want int, v any) error {
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPeerDown, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != want {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	if v == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding peer response: %v", ErrPeerDown, err)
	}
	return nil
}

// httpError writes the standard error body.
func httpError(w http.ResponseWriter, status int, err error) {
	httpJSON(w, status, map[string]string{"error": err.Error()})
}

// httpJSON writes a JSON response.
func httpJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
