package main

// The sharded serving tier of gca-serve: N replicas form a static peer
// ring (-peers, -self), single requests route to their shard owner by
// consistent hashing on the graph fingerprint (proxy, redirect or
// cache-federate per -cluster-mode), and POST /v1/components/batch
// admits many graphs under one queue ticket, splitting them across
// owners. internal/cluster holds the routing machinery; this file is
// the HTTP skin.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gcacc/internal/cluster"
	"gcacc/internal/service"
)

// clusterFlags carries the parsed -peers/-self/-cluster-* flags.
type clusterFlags struct {
	peersCSV     string
	self         int
	mode         string
	peerBudget   time.Duration
	vnodes       int
	batchItems   int
	batchTickets int
}

// buildCluster turns the flags into a wired node. Standalone (-peers
// empty) yields a single-member ring: batch admission still works, and
// every key is owned locally. redirect reports whether non-owned single
// requests should answer 307 instead of proxying.
func buildCluster(svc *service.Service, f clusterFlags) (node *cluster.Node, peerURLs []string, redirect bool, err error) {
	mode := cluster.ModeProxy
	switch f.mode {
	case "redirect":
		// The node still proxies batches; only single requests redirect.
		redirect = true
	default:
		mode, err = cluster.ParseMode(f.mode)
		if err != nil {
			return nil, nil, false, err
		}
	}

	members := []int{0}
	self := 0
	if f.peersCSV != "" {
		for _, u := range strings.Split(f.peersCSV, ",") {
			peerURLs = append(peerURLs, strings.TrimRight(strings.TrimSpace(u), "/"))
		}
		members = make([]int, len(peerURLs))
		for i := range members {
			members[i] = i
		}
		if f.self < 0 || f.self >= len(peerURLs) {
			return nil, nil, false, fmt.Errorf("-self %d outside -peers range [0,%d)", f.self, len(peerURLs))
		}
		self = f.self
	}

	node, err = cluster.NewNode(svc, cluster.Config{
		Self:          self,
		Members:       members,
		VNodes:        f.vnodes,
		Mode:          mode,
		PeerBudget:    f.peerBudget,
		BatchTickets:  f.batchTickets,
		MaxBatchItems: f.batchItems,
	})
	if err != nil {
		return nil, nil, false, err
	}
	if len(peerURLs) > 1 {
		peers := make(map[int]cluster.Peer, len(peerURLs)-1)
		for i, u := range peerURLs {
			if i != self {
				peers[i] = cluster.NewHTTPPeer(u, nil)
			}
		}
		node.SetPeers(peers)
		log.Printf("gca-serve: cluster member %d of %d (%s mode, peer budget %s)",
			self, len(peerURLs), f.mode, node.Config().PeerBudget)
	}
	return node, peerURLs, redirect, nil
}

// clusterComponentsHandler serves POST /v1/components on a multi-replica
// deployment: the request routes to its shard owner, and every response
// carries X-GCA-Shard-Owner. In redirect mode a non-owned request
// answers 307 to the owner's URL instead of proxying (the body travels
// again — 307 preserves method and body).
func clusterComponentsHandler(node *cluster.Node, peerURLs []string, redirect bool, maxBody int64, chaos bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := parseComponents(w, r, maxBody, chaos)
		if !ok {
			return
		}
		owner := node.Owner(req.Sparse.Fingerprint())
		w.Header().Set(cluster.OwnerHeader, strconv.Itoa(owner))
		if redirect && owner != node.Self() && owner < len(peerURLs) {
			loc := peerURLs[owner] + "/v1/components"
			if r.URL.RawQuery != "" {
				loc += "?" + r.URL.RawQuery
			}
			http.Redirect(w, r, loc, http.StatusTemporaryRedirect)
			return
		}
		res, err := node.Submit(r.Context(), req)
		if err != nil {
			writeError(w, cluster.StatusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, cluster.EncodeOutcome(cluster.ItemOutcome{Result: res},
			r.URL.Query().Get("labels") != "0"))
	}
}

// batchHandler serves POST /v1/components/batch: a WireBatchRequest in,
// one WireOutcome per item out, in order. The response is 200 whenever
// the batch was admitted — failures are per-item (status 422, 504, …),
// never all-or-nothing. Admission failures map to 400 (empty), 413
// (too many items), 429 (no free batch ticket) or 503 (draining).
func batchHandler(node *cluster.Node, maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req cluster.WireBatchRequest
		if err := decodeJSONBody(w, r, maxBody, &req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, err)
			} else {
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		items := make([]cluster.BatchItem, len(req.Items))
		for i, wi := range req.Items {
			items[i] = cluster.DecodeWireItem(wi)
		}
		outs, err := node.SubmitBatch(r.Context(), items)
		if err != nil {
			writeError(w, cluster.StatusOf(err), err)
			return
		}
		withLabels := r.URL.Query().Get("labels") != "0"
		resp := cluster.WireBatchResponse{Items: make([]cluster.WireOutcome, len(outs))}
		for i, oc := range outs {
			resp.Items[i] = cluster.EncodeOutcome(oc, withLabels)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// decodeJSONBody reads a bounded JSON request body. A body above
// maxBody answers 413 via the MaxBytesReader error surfacing through
// the decoder.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, maxBody int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// statsResponse nests the cluster snapshot under the service stats; the
// embedded struct keeps the JSON surface of /v1/stats
// backward-compatible for clients that decode service.Stats alone.
type statsResponse struct {
	service.Stats
	Cluster cluster.Stats `json:"cluster"`
}
