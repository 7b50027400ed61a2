package service

import (
	"gcacc/internal/fault"
	"gcacc/internal/metrics"
)

// The counter/gauge/histogram primitives live in internal/metrics so the
// streaming tier can share them; this file keeps the service-specific
// registry and the JSON snapshot shape.

// HistogramSnapshot is re-exported so Stats consumers keep compiling
// against the service package alone.
type HistogramSnapshot = metrics.HistogramSnapshot

// serviceMetrics is the registry of every counter the service maintains.
type serviceMetrics struct {
	submitted       metrics.Counter // Submit calls, before admission
	accepted        metrics.Counter // jobs that entered the queue
	rejectedFull    metrics.Counter // admission failures: queue at capacity
	rejectedInvalid metrics.Counter // admission failures: bad engine / nil or oversized graph
	rejectedClosed  metrics.Counter // admission failures: service shutting down
	rejectedExpired metrics.Counter // admission failures: context already done at Submit
	completed       metrics.Counter // jobs that returned labels
	failed          metrics.Counter // jobs that returned a non-context error
	canceled        metrics.Counter // jobs aborted by their context

	fallbackBreaker  metrics.Counter // attempts degraded to sequential because a breaker was open
	degradedOverload metrics.Counter // jobs demoted to sequential at dequeue (queue depth ≥ DegradeDepth)
	enginePanics     metrics.Counter // engine runs contained by the panic recovery
	cacheHits        metrics.Counter
	cacheMisses      metrics.Counter
	cacheEvictions   metrics.Counter
	coalesced        metrics.Counter // requests served by joining an in-flight identical job
	generations      metrics.Counter // total engine generations/steps executed

	queueDepth metrics.Gauge
	inFlight   metrics.Gauge

	queueWait metrics.Histogram // enqueue → worker pickup
	runTime   metrics.Histogram // engine execution only
}

// Stats is the JSON snapshot served by GET /v1/stats and expvar.
type Stats struct {
	Workers          int   `json:"workers"`
	SimWorkersPerJob int   `json:"sim_workers_per_job"`
	QueueCapacity    int   `json:"queue_capacity"`
	QueueDepth       int64 `json:"queue_depth"`
	InFlight         int64 `json:"in_flight"`

	Submitted       int64 `json:"submitted"`
	Accepted        int64 `json:"accepted"`
	RejectedFull    int64 `json:"rejected_queue_full"`
	RejectedInvalid int64 `json:"rejected_invalid"`
	RejectedClosed  int64 `json:"rejected_closed"`
	RejectedExpired int64 `json:"rejected_expired"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Canceled        int64 `json:"canceled"`

	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerOpen      int64 `json:"breaker_open"`
	FallbackBreaker  int64 `json:"fallback_breaker"`
	DegradedOverload int64 `json:"degraded_overload"`
	EnginePanics     int64 `json:"engine_panics"`

	// Faults snapshots the service-level injector's counters; nil when no
	// injector is configured (per-request injectors are not aggregated
	// here).
	Faults *fault.Counters `json:"faults,omitempty"`

	CacheCapacity  int   `json:"cache_capacity"`
	CacheLen       int   `json:"cache_len"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	Coalesced      int64 `json:"coalesced"`

	Generations int64 `json:"generations"`

	QueueWait HistogramSnapshot `json:"queue_wait"`
	RunTime   HistogramSnapshot `json:"run_time"`
}
