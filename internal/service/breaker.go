package service

import (
	"sync"
	"time"

	"gcacc/internal/fault"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal operation
	breakerOpen                         // tripping: attempts are blocked until the cooldown elapses
	breakerHalfOpen                     // cooldown elapsed: exactly one probe attempt is let through
)

// breaker is a per-engine circuit breaker. Threshold consecutive
// non-context failures trip it open; after cooldown it lets a single
// probe through (half-open), and the probe's outcome either closes it or
// re-opens it for another cooldown. The sequential engine never gets a
// breaker — it is the fallback of last resort.
type breaker struct {
	threshold int
	cooldown  time.Duration
	clock     fault.Clock

	mu          sync.Mutex
	state       breakerState
	consecutive int
	openedAt    time.Time
	trips       int64
}

func newBreaker(threshold int, cooldown time.Duration, clk fault.Clock) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, clock: clk}
}

// allow reports whether an attempt may run now. An open breaker whose
// cooldown has elapsed transitions to half-open and admits the caller as
// its single probe; a half-open breaker blocks everyone but the probe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clock.Now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // breakerHalfOpen: a probe is already in flight
		return false
	}
}

// observe records the outcome of an attempt the breaker admitted. A
// context error (the caller gave up, or the deadline passed) says
// nothing about engine health: it neither counts as a failure nor closes
// the breaker. When it ends the half-open probe, the breaker returns to
// open with its cooldown already elapsed, so the next request becomes
// the probe.
func (b *breaker) observe(err error) {
	switch {
	case err == nil:
		b.onSuccess()
	case !isContextErr(err):
		b.onFailure()
	default:
		b.mu.Lock()
		if b.state == breakerHalfOpen {
			b.state = breakerOpen
		}
		b.mu.Unlock()
	}
}

// onSuccess records a successful attempt: the breaker closes and the
// failure streak resets.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	b.state = breakerClosed
	b.consecutive = 0
	b.mu.Unlock()
}

// onFailure records a failed attempt. A failed half-open probe re-opens
// immediately; a closed breaker opens once the streak reaches the
// threshold.
func (b *breaker) onFailure() {
	b.mu.Lock()
	b.consecutive++
	if b.state == breakerHalfOpen || b.consecutive >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.clock.Now()
		b.trips++
		b.consecutive = 0
	}
	b.mu.Unlock()
}

// snapshot returns (currently open or half-open, total trips).
func (b *breaker) snapshot() (open bool, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerClosed, b.trips
}
