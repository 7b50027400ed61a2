# Pre-merge gate: `make check` runs everything a PR must pass.
# `go build ./... && go test ./...` remains the quick tier-1 subset.

GO ?= go

.PHONY: all build vet test test-race lint lint-gcasm fmt-check check verify chaos-smoke stream-smoke cluster-smoke fuzz-smoke bench bench-json bench-smoke bench-build serve

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomises test and subtest execution order, so tests that
# secretly depend on a sibling running first fail here instead of later.
test:
	$(GO) test -shuffle=on ./...

# The serving layer is concurrency-heavy; its tests (and everything else)
# must stay clean under the race detector.
test-race:
	$(GO) test -race ./...

# Custom stdlib-only analyzers for the model invariants (double-buffer
# discipline, determinism, context plumbing, mutex guards, atomic access
# discipline, pool Close pairing, lock ordering, errcheck) and dead code
# (unused).
# See internal/lint and TESTING.md.
lint:
	$(GO) run ./cmd/gca-lint -dir .

# Static verifier for the GCA rule language (internal/gcasm/check): the
# embedded Hirschberg and list-ranking programs under their field
# contracts, then the example programs with the raw n-cell contract.
# See TESTING.md "Static analysis".
lint-gcasm:
	$(GO) run ./cmd/gca-lint -gcasm
	$(GO) run ./cmd/gca-lint -gcasm -cells 8 internal/gcasm/testdata/programs/ring.gca internal/gcasm/testdata/programs/doubling.gca

# gofmt and go vet as a separate fast gate (CI runs it in the lint job).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

check: build vet test test-race lint lint-gcasm chaos-smoke stream-smoke cluster-smoke bench-build

# Cross-engine conformance harness (differential + metamorphic + analytic
# oracles over the deterministic corpus), then the sparse engines
# differentially at n = 10⁵. See TESTING.md.
verify:
	$(GO) run ./cmd/gca-verify -n 32 -seed 1
	$(GO) run ./cmd/gca-verify -sparse-n 100000 -seed 1

# Chaos conformance tier: the seeded fault-injection soak under the race
# detector — every successful response under injected step errors,
# delays and stalls must equal union-find ground truth, and the breaker
# and its sequential fallback must demonstrably fire. Override
# CHAOS_REQUESTS (and GCACC_CHAOS_N / GCACC_CHAOS_SEED) to scale the
# soak. See TESTING.md "Chaos".
CHAOS_REQUESTS ?= 400
chaos-smoke:
	GCACC_CHAOS_REQUESTS=$(CHAOS_REQUESTS) $(GO) test -race -count=1 -run '^TestChaosSoak$$' ./internal/verify

# Streaming conformance tier: the stream harness (incremental vs
# periodic-full-recompute vs union-find oracle, clean and fault-injected)
# plus the registry soak, both under the race detector, plus a seed-
# corpus replay of the mutation-trace fuzzer. Override GCACC_STREAM_N /
# GCACC_STREAM_SOAK_OPS to scale. See TESTING.md "Stream".
stream-smoke:
	$(GO) test -race -count=1 -run '^TestConformanceStream$$' .
	$(GO) test -race -count=1 -run '^(TestRunStream.*|TestStreamSoak)$$' ./internal/verify
	$(GO) test -count=1 -run '^FuzzMutationTrace$$' ./internal/stream

# Sharded-serving conformance tier: the cluster conformance gate (every
# request through every replica of 1/2/4-replica topologies, labels
# bit-identical to the single-process path) and the cluster chaos soak
# (peer faults, a replica stopped and revived mid-run, concurrent
# clients), both under the race detector. Override GCACC_CLUSTER_REQUESTS
# / GCACC_CLUSTER_N / GCACC_CLUSTER_SEED to scale the soak. See
# TESTING.md "Cluster".
cluster-smoke:
	$(GO) test -race -count=1 -run '^TestConformanceCluster$$' .
	$(GO) test -race -count=1 -run '^TestClusterChaosSoak$$' ./internal/verify

# Mutate each fuzz target briefly on top of the checked-in seed corpora.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParseEdges$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzParseMatrix$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzAssemble$$' -fuzztime=$(FUZZTIME) ./internal/gcasm
	$(GO) test -run='^$$' -fuzz='^FuzzConformanceEdgeList$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzChainedMatchesGeneric$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParseEdgeStream$$' -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzMutationTrace$$' -fuzztime=$(FUZZTIME) ./internal/stream

bench:
	$(GO) test -bench=. -benchmem ./...

# Append a labelled trajectory point (ns/op, B/op, custom metrics) to the
# checked-in BENCH_<stamp>.json so wall-clock history stays comparable
# across PRs. Override LABEL to name the point and BENCHFILE to target an
# existing trajectory, and BENCH (a -bench pattern) and PKG to measure a
# subset, e.g.
#   make bench-json BENCH='Figure2GCAProgram|EngineWorkers' PKG=. LABEL=x
# See EXPERIMENTS.md "Wall-clock trajectory".
LABEL ?= local
BENCHFILE ?= BENCH_$(shell date +%Y%m%d).json
BENCH ?= .
PKG ?= ./...
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchmem $(PKG) | $(GO) run ./cmd/gca-benchjson -label $(LABEL) -out $(BENCHFILE)

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for a full measurement run (CI gate).
# The second line runs the pass/fail performance gates (internal/core
# bench smoke tests): a default run, which takes the chained kernel
# path, must beat an observed run, which steps the generic per-cell
# rule; workers=8 must not be meaningfully slower than workers=1; and
# one full n=1024 run must finish inside a generous wall-clock ceiling.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	GCACC_BENCH_SMOKE=1 $(GO) test -count=1 -run '^TestBenchSmoke' -v ./internal/core

# The end-to-end benchmark under bench/ is its own Go module (gcacc/bench,
# with a replace onto this tree), so the root `go test ./...` never builds
# it. Vet it and run its fast tests here, so a change to an API it
# imports fails this gate instead of the next benchmark run.
bench-build:
	cd bench && $(GO) vet . && $(GO) test .

serve:
	$(GO) run ./cmd/gca-serve
