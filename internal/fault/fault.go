// Package fault is the deterministic fault-injection harness behind the
// chaos conformance tier: a seeded injector whose per-step decisions
// (artificial latency, worker stalls, forced transient errors) are pure
// functions of (seed, run ordinal, decision index), an injectable clock
// so resilience machinery (breaker cooldowns) can be tested without real
// sleeping, and a tiny spec grammar so every command can switch the same
// fault schedules on from a flag.
//
// The paper's GCA model assumes perfectly synchronous, fault-free cells,
// and every engine here is as deterministic: the injector is the only
// source of transient failures. It lets the test suite subject the whole
// stack — stepping engine, breaker/fallback layer, HTTP handlers — to
// adversarial schedules while keeping the one invariant that matters
// checkable: faults may surface as errors or documented fallbacks, never
// as a silently wrong answer.
//
// Determinism contract: each engine run draws its decisions from a
// stream seeded by (Config.Seed, run ordinal), so a fault schedule is
// reproducible from the seed and the ordinal alone. Under concurrency
// the *assignment* of ordinals to requests follows scheduling, but every
// decision stream itself is fixed — a failing schedule replays from its
// seed.
package fault

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrTransient marks an injected failure: the run, batch or peer call
// aborted without producing (or corrupting) a result. Only the injector
// produces it. Every injected failure wraps it; the chaos tiers classify
// with IsTransient rather than matching this sentinel directly, to tell
// a tolerated injected failure from a real one.
var ErrTransient = errors.New("fault: transient failure")

// IsTransient reports whether err is an injected failure.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Config describes a fault schedule. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision; runs of the same injector
	// draw from per-run streams derived from it.
	Seed int64
	// StepErrorP is the per-step probability of a forced transient error:
	// the step aborts before any cell is evaluated and the run fails with
	// an error wrapping ErrTransient.
	StepErrorP float64
	// StepDelayP is the per-step probability of injected latency of
	// StepDelay before the step runs.
	StepDelayP float64
	StepDelay  time.Duration
	// StallP is the per-shard probability that a worker goroutine stalls
	// for Stall before evaluating its range. Stalls delay the step
	// barrier but never change results.
	StallP float64
	Stall  time.Duration
	// BatchErrorP is the per-mutation-batch probability that a stream
	// batch aborts before any edge is applied — the mid-batch-abort
	// fault of the stream chaos tier. The decision fires before state is
	// touched, so an aborted batch is atomic: the graph is unchanged and
	// the caller may retry.
	BatchErrorP float64
	// PeerErrorP is the per-peer-call probability that a cluster-tier
	// peer RPC fails with a transient error before it leaves the caller —
	// the "dead peer" fault of the cluster chaos tier. The decision fires
	// before any bytes move, so a failed call is free to fall back to
	// local compute.
	PeerErrorP float64
	// PeerStallP is the per-peer-call probability of injected latency of
	// PeerStall before the call proceeds — the "slow peer" fault that
	// exercises the bounded peer-call budget.
	PeerStallP float64
	PeerStall  time.Duration
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.StepErrorP > 0 || (c.StepDelayP > 0 && c.StepDelay > 0) ||
		(c.StallP > 0 && c.Stall > 0) || c.BatchErrorP > 0 ||
		c.PeerErrorP > 0 || (c.PeerStallP > 0 && c.PeerStall > 0)
}

// String renders the config in the ParseSpec grammar.
func (c Config) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.StepErrorP > 0 {
		parts = append(parts, fmt.Sprintf("steperr=%g", c.StepErrorP))
	}
	if c.StepDelayP > 0 && c.StepDelay > 0 {
		parts = append(parts, fmt.Sprintf("stepdelay=%g:%s", c.StepDelayP, c.StepDelay))
	}
	if c.StallP > 0 && c.Stall > 0 {
		parts = append(parts, fmt.Sprintf("stall=%g:%s", c.StallP, c.Stall))
	}
	if c.BatchErrorP > 0 {
		parts = append(parts, fmt.Sprintf("batcherr=%g", c.BatchErrorP))
	}
	if c.PeerErrorP > 0 {
		parts = append(parts, fmt.Sprintf("peererr=%g", c.PeerErrorP))
	}
	if c.PeerStallP > 0 && c.PeerStall > 0 {
		parts = append(parts, fmt.Sprintf("peerstall=%g:%s", c.PeerStallP, c.PeerStall))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the flag-friendly fault vocabulary:
//
//	seed=7,steperr=0.01,stepdelay=0.05:200us,stall=0.02:1ms
//
// Keys: seed=N (decision seed), steperr=P (per-step transient-error
// probability), stepdelay=P:DUR (per-step latency), stall=P:DUR
// (per-shard worker stall), batcherr=P (per-stream-batch abort),
// peererr=P (per-peer-call failure), peerstall=P:DUR (per-peer-call
// latency). Probabilities are in [0,1]; durations use
// time.ParseDuration syntax. An empty spec is the zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: spec term %q is not key=value", part)
		}
		switch key {
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: seed %q: %w", val, err)
			}
			c.Seed = s
		case "steperr":
			p, err := parseProb(val)
			if err != nil {
				return Config{}, fmt.Errorf("fault: steperr: %w", err)
			}
			c.StepErrorP = p
		case "stepdelay":
			p, d, err := parseProbDur(val)
			if err != nil {
				return Config{}, fmt.Errorf("fault: stepdelay: %w", err)
			}
			c.StepDelayP, c.StepDelay = p, d
		case "stall":
			p, d, err := parseProbDur(val)
			if err != nil {
				return Config{}, fmt.Errorf("fault: stall: %w", err)
			}
			c.StallP, c.Stall = p, d
		case "batcherr":
			p, err := parseProb(val)
			if err != nil {
				return Config{}, fmt.Errorf("fault: batcherr: %w", err)
			}
			c.BatchErrorP = p
		case "peererr":
			p, err := parseProb(val)
			if err != nil {
				return Config{}, fmt.Errorf("fault: peererr: %w", err)
			}
			c.PeerErrorP = p
		case "peerstall":
			p, d, err := parseProbDur(val)
			if err != nil {
				return Config{}, fmt.Errorf("fault: peerstall: %w", err)
			}
			c.PeerStallP, c.PeerStall = p, d
		default:
			return Config{}, fmt.Errorf("fault: unknown spec key %q (seed|steperr|stepdelay|stall|batcherr|peererr|peerstall)", key)
		}
	}
	return c, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

func parseProbDur(s string) (float64, time.Duration, error) {
	ps, ds, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q is not P:DURATION", s)
	}
	p, err := parseProb(ps)
	if err != nil {
		return 0, 0, err
	}
	d, err := time.ParseDuration(ds)
	if err != nil {
		return 0, 0, err
	}
	if d < 0 {
		return 0, 0, fmt.Errorf("negative duration %s", d)
	}
	return p, d, nil
}

// Counters is a snapshot of what an injector has actually injected —
// chaos tests assert these are non-zero so a soak cannot pass vacuously.
type Counters struct {
	Runs         int64 `json:"runs"`
	StepErrors   int64 `json:"step_errors"`
	StepDelays   int64 `json:"step_delays"`
	WorkerStalls int64 `json:"worker_stalls"`
	BatchAborts  int64 `json:"batch_aborts"`
	PeerErrors   int64 `json:"peer_errors"`
	PeerStalls   int64 `json:"peer_stalls"`
}

// Any reports whether anything was injected.
func (c Counters) Any() bool {
	return c.StepErrors+c.StepDelays+c.WorkerStalls+c.BatchAborts+
		c.PeerErrors+c.PeerStalls > 0
}

// Injector hands out deterministic per-run fault schedules and counts
// what it injects. Safe for concurrent use.
type Injector struct {
	cfg   Config
	clock Clock

	runs         atomic.Int64
	stepErrors   atomic.Int64
	stepDelays   atomic.Int64
	workerStalls atomic.Int64
	batchAborts  atomic.Int64
	peerErrors   atomic.Int64
	peerStalls   atomic.Int64
	batches      atomic.Uint64
	peerCalls    atomic.Uint64
}

// New builds an injector over the real clock.
func New(cfg Config) *Injector { return NewWithClock(cfg, RealClock()) }

// NewWithClock builds an injector whose injected sleeps use clk.
func NewWithClock(cfg Config, clk Clock) *Injector {
	if clk == nil {
		clk = RealClock()
	}
	return &Injector{cfg: cfg, clock: clk}
}

// Config returns the injector's schedule description.
func (in *Injector) Config() Config { return in.cfg }

// Counters snapshots the injection totals.
func (in *Injector) Counters() Counters {
	return Counters{
		Runs:         in.runs.Load(),
		StepErrors:   in.stepErrors.Load(),
		StepDelays:   in.stepDelays.Load(),
		WorkerStalls: in.workerStalls.Load(),
		BatchAborts:  in.batchAborts.Load(),
		PeerErrors:   in.peerErrors.Load(),
		PeerStalls:   in.peerStalls.Load(),
	}
}

// decision stream identifiers: each fault site draws from its own
// stream so enabling one site never shifts another's decisions.
const (
	siteStepError = 0x5e9f
	siteStepDelay = 0x1d2b
	siteStall     = 0x7a31
	siteBatch     = 0x3c47
	sitePeerErr   = 0x6b59
	sitePeerStall = 0x2f8d
)

// Run is one engine run's decision stream. Each decision is a pure
// function of (injector seed, run ordinal, site, decision index).
type Run struct {
	inj    *Injector
	seed   uint64
	steps  atomic.Uint64
	stalls atomic.Uint64
}

// NewRun derives the decision stream for the next engine run.
func (in *Injector) NewRun() *Run {
	ord := uint64(in.runs.Add(1))
	return &Run{inj: in, seed: splitmix64(splitmix64(uint64(in.cfg.Seed)) ^ ord)}
}

// BeforeStep applies the per-step schedule: possibly sleep StepDelay
// (interruptible by ctx — the context's error is returned), then
// possibly fail the step with an error wrapping ErrTransient. gen names
// the generation for the error message only.
func (r *Run) BeforeStep(ctx context.Context, gen int) error {
	n := r.steps.Add(1)
	cfg := r.inj.cfg
	if cfg.StepDelayP > 0 && cfg.StepDelay > 0 && uniform01(r.seed^siteStepDelay, n) < cfg.StepDelayP {
		r.inj.stepDelays.Add(1)
		if err := r.inj.clock.Sleep(ctx, cfg.StepDelay); err != nil {
			return err
		}
	}
	if cfg.StepErrorP > 0 && uniform01(r.seed^siteStepError, n) < cfg.StepErrorP {
		r.inj.stepErrors.Add(1)
		return fmt.Errorf("fault: injected step failure (run step %d, generation %d): %w",
			n, gen, ErrTransient)
	}
	return nil
}

// WorkerStall applies the per-shard stall schedule for one worker. A
// stall only delays; it never changes results, and a context expiring
// mid-stall surfaces at the next step's cancellation check.
func (r *Run) WorkerStall(ctx context.Context, worker int) {
	cfg := r.inj.cfg
	if cfg.StallP <= 0 || cfg.Stall <= 0 {
		return
	}
	n := r.stalls.Add(1)
	if uniform01(r.seed^siteStall^splitmix64(uint64(worker)), n) < cfg.StallP {
		r.inj.workerStalls.Add(1)
		// The stall is pure delay; an interrupt is not an error here.
		_ = r.inj.clock.Sleep(ctx, cfg.Stall)
	}
}

// BeforeBatch applies the per-batch abort schedule for the streaming
// tier: decision n of the injector-wide batch stream may fail with an
// error wrapping ErrTransient. Callers invoke it before applying any
// edge, so an aborted batch leaves the graph untouched.
func (in *Injector) BeforeBatch() error {
	if in.cfg.BatchErrorP <= 0 {
		return nil
	}
	n := in.batches.Add(1)
	seed := splitmix64(uint64(in.cfg.Seed)) ^ siteBatch
	if uniform01(seed, n) < in.cfg.BatchErrorP {
		in.batchAborts.Add(1)
		return fmt.Errorf("fault: injected batch abort (batch %d): %w", n, ErrTransient)
	}
	return nil
}

// BeforePeerCall applies the per-peer-call schedule for the cluster
// tier: decision n of the injector-wide peer stream may first stall for
// PeerStall (interruptible by ctx — pure delay, not an error) and then
// fail with an error wrapping ErrTransient. Callers invoke it before
// any bytes leave the process, so a failed call is atomic and the
// caller is free to degrade to local compute.
func (in *Injector) BeforePeerCall(ctx context.Context) error {
	cfg := in.cfg
	if cfg.PeerErrorP <= 0 && (cfg.PeerStallP <= 0 || cfg.PeerStall <= 0) {
		return nil
	}
	n := in.peerCalls.Add(1)
	seed := splitmix64(uint64(cfg.Seed))
	if cfg.PeerStallP > 0 && cfg.PeerStall > 0 && uniform01(seed^sitePeerStall, n) < cfg.PeerStallP {
		in.peerStalls.Add(1)
		// The stall is pure delay; an interrupt surfaces at the caller's
		// own deadline check, not here.
		_ = in.clock.Sleep(ctx, cfg.PeerStall)
	}
	if cfg.PeerErrorP > 0 && uniform01(seed^sitePeerErr, n) < cfg.PeerErrorP {
		in.peerErrors.Add(1)
		return fmt.Errorf("fault: injected peer-call failure (call %d): %w", n, ErrTransient)
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer — a fast, well-mixed hash used
// to derive independent deterministic streams from a seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform01 returns a deterministic uniform draw in [0,1) for decision n
// of the stream named by seed — the stateless primitive behind every
// injector decision, in place of a locked rand.Rand.
func uniform01(seed, n uint64) float64 {
	return float64(splitmix64(seed^splitmix64(n))>>11) / (1 << 53)
}
