package fault

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts the time operations the resilience machinery depends
// on — queue-wait measurement, breaker cooldowns and the injector's own
// sleeps — so tests can drive them deterministically with a FakeClock
// instead of real sleeping. Context deadlines remain real time: a fake
// clock virtualises the service's *own* waits, not the runtime's timers.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() when
	// interrupted and nil when the full duration elapsed.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock returns the wall-clock implementation.
func RealClock() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FakeClock is a manually advanced clock: Sleep blocks until Advance has
// moved the clock past the wake-up time (or the context is done). Tests
// use it to step breakers through open → half-open → closed and to check
// the injector's sleeps without waiting real time.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters map[chan struct{}]time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start, waiters: map[chan struct{}]time.Time{}}
}

// Now returns the fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward and wakes every sleeper whose deadline
// has been reached.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	for ch, at := range c.waiters {
		if !c.now.Before(at) {
			close(ch)
			delete(c.waiters, ch)
		}
	}
	c.mu.Unlock()
}

// Sleep blocks until Advance moves the clock past now+d or ctx is done.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	ch := make(chan struct{})
	c.mu.Lock()
	c.waiters[ch] = c.now.Add(d)
	c.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.waiters, ch)
		c.mu.Unlock()
		return ctx.Err()
	}
}
