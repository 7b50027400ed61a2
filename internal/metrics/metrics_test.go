package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{1023 * time.Microsecond, 9},
		{1024 * time.Microsecond, 10},
		{(1 << 29) * time.Microsecond, histBuckets - 1},
		// The last bucket is open-ended: an hour is past 2^30 µs.
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		for b, n := range h.buckets {
			if (b == c.bucket) != (n == 1) {
				t.Errorf("Observe(%v): bucket %d holds %d, want the observation in bucket %d", c.d, b, n, c.bucket)
			}
		}
	}
}

func TestHistogramQuantilesClampedToMax(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Microsecond) // bucket [2, 4) µs; its upper edge is 4
	s := h.Snapshot()
	if s.P50US != 3 || s.P90US != 3 || s.P99US != 3 {
		t.Errorf("quantiles = %d/%d/%d µs, want all clamped to the 3 µs max", s.P50US, s.P90US, s.P99US)
	}

	var open Histogram
	open.Observe(time.Hour) // the open-ended bucket has no upper edge
	if s := open.Snapshot(); s.P99US != time.Hour.Microseconds() {
		t.Errorf("open-bucket p99 = %d µs, want the %d µs max", s.P99US, time.Hour.Microseconds())
	}

	var mixed Histogram
	for i := 0; i < 9; i++ {
		mixed.Observe(10 * time.Microsecond) // bucket [8, 16) µs
	}
	mixed.Observe(100 * time.Microsecond) // bucket [64, 128) µs
	s = mixed.Snapshot()
	if s.P50US != 16 || s.P99US != 100 {
		t.Errorf("p50/p99 = %d/%d µs, want the 16 µs bucket edge and the 100 µs max", s.P50US, s.P99US)
	}
	if s.Count != 10 || s.MinUS != 10 || s.MaxUS != 100 || s.MeanUS != 19 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5 * time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.MinUS != 0 || s.MaxUS != 0 || s.MeanUS != 0 || h.buckets[0] != 1 {
		t.Errorf("after a negative observation: snapshot %+v, bucket 0 = %d", s, h.buckets[0])
	}
}

func TestZeroValues(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s != (HistogramSnapshot{}) {
		t.Errorf("zero-value snapshot = %+v, want all zero", s)
	}
	var c Counter
	var g Gauge
	if c.Value() != 0 || g.Value() != 0 {
		t.Errorf("zero values: counter %d, gauge %d", c.Value(), g.Value())
	}
}

// TestConcurrentUse is meant for -race: every update must land exactly
// once.
func TestConcurrentUse(t *testing.T) {
	const workers, per = 8, 500
	var (
		c  Counter
		g  Gauge
		h  Histogram
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				c.Add(2)
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				g.Add(-1)
				_ = h.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(3*workers*per); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	s := h.Snapshot()
	if s.Count != workers*per || s.MinUS != 0 || s.MaxUS != per-1 {
		t.Errorf("histogram snapshot = %+v", s)
	}
	var total int64
	for _, n := range h.buckets {
		total += n
	}
	if total != workers*per {
		t.Errorf("buckets hold %d observations, want %d", total, workers*per)
	}
}
