package main

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"gcacc/internal/cluster"
	"gcacc/internal/stream"
)

// The named-graph streaming API: long-lived graphs that absorb edge
// appends incrementally (union-find fast path) and answer component
// queries without a from-scratch run, falling back to a full bounded
// recompute after a deletion that cuts the spanning forest.
//
//	PUT    /v1/graphs/{name}?n=1000        create a named graph
//	GET    /v1/graphs/{name}               graph info (epoch, edges, counters)
//	DELETE /v1/graphs/{name}               drop the graph
//	POST   /v1/graphs/{name}/edges         append a batch ("u v" lines)
//	DELETE /v1/graphs/{name}/edges         retract a batch
//	GET    /v1/graphs/{name}/components    labelling snapshot
//	GET    /v1/graphs                      list graphs + registry stats
//
// Mutations take an optional ?epoch=N precondition (optimistic
// concurrency): the mutation applies only if the graph's epoch still
// equals N, otherwise 409. Every accepted batch bumps the epoch by one.
// An unknown graph answers 404, a duplicate create 409, a batch over
// the admission limits 422, a malformed body or name 400, and a client
// that disconnects mid-recompute 499.

// streamAPI wires a stream.Registry onto the serving mux. It is a
// separate struct (not closures in main) so handler tests can mount it
// on a bare mux with an injected registry.
type streamAPI struct {
	reg     *stream.Registry
	maxBody int64
}

func newStreamAPI(reg *stream.Registry, maxBody int64) *streamAPI {
	return &streamAPI{reg: reg, maxBody: maxBody}
}

func (api *streamAPI) register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/graphs", api.list)
	mux.HandleFunc("PUT /v1/graphs/{name}", api.create)
	mux.HandleFunc("GET /v1/graphs/{name}", api.info)
	mux.HandleFunc("DELETE /v1/graphs/{name}", api.drop)
	mux.HandleFunc("POST /v1/graphs/{name}/edges", api.mutate(true))
	mux.HandleFunc("DELETE /v1/graphs/{name}/edges", api.mutate(false))
	mux.HandleFunc("GET /v1/graphs/{name}/components", api.components)
}

// epochParam parses the optional ?epoch=N precondition; absent means
// unconditional (stream.NoEpoch).
func epochParam(r *http.Request) (int64, error) {
	s := r.URL.Query().Get("epoch")
	if s == "" {
		return stream.NoEpoch, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad epoch %q (want a non-negative integer)", s)
	}
	return v, nil
}

func (api *streamAPI) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.reg.Stats())
}

func (api *streamAPI) create(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad vertex count %q (want ?n=<non-negative integer>)", r.URL.Query().Get("n")))
		return
	}
	st, err := api.reg.Create(name, n)
	if err != nil {
		writeError(w, streamStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, st.Info())
}

func (api *streamAPI) info(w http.ResponseWriter, r *http.Request) {
	st, err := api.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, streamStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st.Info())
}

func (api *streamAPI) drop(w http.ResponseWriter, r *http.Request) {
	if err := api.reg.Drop(r.PathValue("name")); err != nil {
		writeError(w, streamStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
}

// mutate serves both POST (append) and DELETE (retract) on /edges; the
// body is "u v" lines in either case, the batch is atomic, and the
// epoch precondition is checked before any edge applies.
func (api *streamAPI) mutate(appendOp bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		expect, err := epochParam(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		body := http.MaxBytesReader(w, r.Body, api.maxBody)
		edges, err := stream.ParseBatch(body, api.reg.Config().MaxBatch)
		if err != nil {
			var tooBig *http.MaxBytesError
			switch {
			case errors.As(err, &tooBig):
				writeError(w, http.StatusRequestEntityTooLarge, err)
			case errors.Is(err, stream.ErrBatchLimit):
				writeError(w, http.StatusUnprocessableEntity, err)
			default:
				// Anything else from the batch parser is a malformed body.
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		var m stream.Mutation
		if appendOp {
			m, err = api.reg.Append(r.Context(), name, edges, expect)
		} else {
			m, err = api.reg.Delete(r.Context(), name, edges, expect)
		}
		if err != nil {
			writeError(w, streamStatusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, m)
	}
}

func (api *streamAPI) components(w http.ResponseWriter, r *http.Request) {
	labels := r.URL.Query().Get("labels") != "0"
	snap, err := api.reg.Components(r.Context(), r.PathValue("name"), labels)
	if err != nil {
		writeError(w, streamStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// streamStatusOf maps streaming-tier errors onto HTTP status codes,
// deferring to cluster.StatusOf (and its 499/504 context cases) for
// everything it does not know.
func streamStatusOf(err error) int {
	switch {
	case errors.Is(err, stream.ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, stream.ErrGraphExists), errors.Is(err, stream.ErrEpochConflict):
		// Both are optimistic-concurrency conflicts: the resource state
		// the client assumed (absent graph, epoch N) no longer holds.
		return http.StatusConflict
	case errors.Is(err, stream.ErrGraphLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, stream.ErrBatchLimit), errors.Is(err, stream.ErrEdgeLimit),
		errors.Is(err, stream.ErrInvalidEdge):
		// Well-formed request the server understands but will not apply:
		// the batch or live-edge budget is exceeded, or an edge is out of
		// range for the named graph.
		return http.StatusUnprocessableEntity
	case errors.Is(err, stream.ErrBadName):
		return http.StatusBadRequest
	default:
		return cluster.StatusOf(err)
	}
}
