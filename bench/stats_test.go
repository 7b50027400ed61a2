package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, q := range []float64{0.1, 0.9} {
		if _, err := percentile(xs, q); err == nil {
			t.Fatalf("p%g of 99 samples: want an error, got none", 100*q)
		}
	}
	xs = append(xs, 100)
	for _, c := range []struct{ q, want float64 }{{0.1, 10}, {0.5, 50}, {0.9, 90}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", 100*c.q, got, err, c.want)
		}
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples: want an error, got none")
	}
}

func TestCapacityIsMedianOfSeconds(t *testing.T) {
	start := time.Unix(1000, 0)
	var done []time.Time
	// Per-second completions 10, 12, 90 (a burst), 11, 9, then one after
	// the phase and one before it, which must not count.
	for sec, n := range []int{10, 12, 90, 11, 9, 1} {
		for i := 0; i < n; i++ {
			done = append(done, start.Add(time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	done = append(done, start.Add(-time.Millisecond))
	counts := perSecond(start, 5, done)
	want := []float64{10, 12, 90, 11, 9}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("perSecond = %v, want %v", counts, want)
		}
	}
	if got := capacity(counts); got != 11 {
		t.Errorf("capacity = %v, want the median 11", got)
	}
}

// A server that stalls its first request for 300 ms holds the only
// connection; requests due during the stall wait behind it, and the
// open loop charges that wait to them from their due time.
func TestLatencyFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	c := newLoadClient([]string{srv.URL}, 1)
	defer c.close()
	req := &request{kind: opRead, method: http.MethodGet, path: "/",
		check: func(http.Header, []byte) (reply, error) { return reply{}, nil }}
	samples := openLoop(context.Background(), c, 20, 250*time.Millisecond, 0, func(int) *request { return req }, false)
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	start := samples[0].due
	for i, s := range samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if late := s.sent.Sub(s.due); late > 20*time.Millisecond {
			t.Errorf("request %d sent %v late: the generator must not wait for the stall", i, late)
		}
		// Due at i·50 ms, it cannot finish before the stall ends.
		if want := stall - s.due.Sub(start); s.latency() < want {
			t.Errorf("request %d: latency %v, want at least %v of the stall", i, s.latency(), want)
		}
	}
}

// A run where a tenth of the reads failed has an infinite p90; the JSON
// line must still record the run, as incorrect, without that metric.
func TestSummaryRecordsFailedRun(t *testing.T) {
	r := &result{attempted: 10, failed: 2}
	r.add("p10_ms", 1.5, "ms")
	r.add("p90_ms", math.Inf(1), "ms")
	line, err := summary([]workload{{name: "w"}}, []*result{r})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	_, hasP90 := got.Metrics["p90_ms"]
	if got.Correct || got.Attempted != 10 || got.Failed != 2 || got.Metrics["p10_ms"].Value != 1.5 || hasP90 {
		t.Errorf("summary = %s; want correct false, 10 attempted, 2 failed, p10_ms 1.5 and no p90_ms", line)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 45},  // covers only its own parent
	}
	self := selfTimes(spans)
	// request: 100 − |[10,50) ∪ [90,100)| = 50 ns.
	if got := self["request"][0]; got != 50e-6 {
		t.Errorf("request self = %v ms, want 50e-6", got)
	}
	if got := self["a"]; got[0] != 20e-6 || got[1] != 10e-6 {
		t.Errorf("a self = %v ms, want [20e-6 10e-6]", got)
	}
}
