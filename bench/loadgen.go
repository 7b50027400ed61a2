package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"syscall"
	"time"
)

// opKind separates the requests whose latency the end-to-end metrics
// report (reads) from the stream's mutations (writes).
type opKind int

const (
	opRead opKind = iota
	opWrite
)

// request is one HTTP call a workload makes. check verifies the answer
// against the oracle and extracts what the server reported about it.
type request struct {
	kind    opKind
	method  string
	replica int
	path    string
	body    []byte
	check   func(hdr http.Header, body []byte) (reply, error)
}

// reply is what a verified response said about how it was served.
type reply struct {
	waitUS, runUS int64 // queue wait and engine time of the run behind the answer
	cached        bool
	owner         int  // X-GCA-Shard-Owner, -1 when absent
	recomputed    bool // a stream query that ran a full recompute
	rounds        int  // the recompute's engine rounds
}

// sample is one completed request. Latency runs from due, the time the
// open-loop schedule meant to send it, so a stall is charged to every
// request queued behind it. The httptrace stamps are set only on a
// traced request.
type sample struct {
	req                                *request
	traced                             bool
	due, sent, done                    time.Time
	getConn, gotConn, wrote, firstByte time.Time
	reply                              reply
	err                                error
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// loadClient is the load generator's side of the wire: at most
// connsPerReplica connections to each replica, shared by every phase.
type loadClient struct {
	hc    *http.Client
	bases []string
}

func newLoadClient(bases []string, connsPerReplica int) *loadClient {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     connsPerReplica,
		MaxIdleConnsPerHost: connsPerReplica,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &loadClient{hc: &http.Client{Transport: tr, Timeout: time.Minute}, bases: bases}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and verifies the answer, stamping the httptrace
// events when traced. It never returns an error: failures are recorded
// in the sample and counted by the caller.
func (c *loadClient) do(ctx context.Context, r *request, due time.Time, traced bool) sample {
	if !traced {
		return c.send(ctx, r, due)
	}
	// The transport calls the hooks from its own goroutines.
	var (
		mu sync.Mutex
		st sample
	)
	stamp := func(t *time.Time) {
		mu.Lock()
		*t = time.Now()
		mu.Unlock()
	}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn:              func(string) { stamp(&st.getConn) },
		GotConn:              func(httptrace.GotConnInfo) { stamp(&st.gotConn) },
		WroteRequest:         func(httptrace.WroteRequestInfo) { stamp(&st.wrote) },
		GotFirstResponseByte: func() { stamp(&st.firstByte) },
	})
	s := c.send(ctx, r, due)
	mu.Lock()
	s.getConn, s.gotConn, s.wrote, s.firstByte = st.getConn, st.gotConn, st.wrote, st.firstByte
	mu.Unlock()
	s.traced = true
	return s
}

func (c *loadClient) send(ctx context.Context, r *request, due time.Time) sample {
	s := sample{req: r, due: due}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	hreq, err := http.NewRequestWithContext(ctx, r.method, c.bases[r.replica]+r.path, body)
	if err != nil {
		s.err = err
		return s
	}
	s.sent = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.done, s.err = time.Now(), err
		return s
	}
	data, err := io.ReadAll(resp.Body)
	s.done = time.Now()
	_ = resp.Body.Close()
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, bytes.TrimSpace(data))
		return s
	}
	s.reply, s.err = r.check(resp.Header, data)
	return s
}

// openLoop sends the requests next(first), next(first+1), … at a fixed
// rate for dur, each on its own goroutine, whether or not earlier ones
// have completed — independent users, not waiting callers. With
// traceHalf, a hash of the index picks half the requests to trace, so
// traced and untraced requests share inputs, replicas and conditions.
func openLoop(ctx context.Context, c *loadClient, rate float64, dur time.Duration, first int, next func(int) *request, traceHalf bool) []sample {
	n := int(rate * dur.Seconds())
	out := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if sleepUntil(ctx, due) != nil {
			out = out[:i]
			break
		}
		r := next(first + i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.do(ctx, r, due, traceHalf && mix(uint64(i))&1 == 1)
		}(i)
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. A Go timer
// would do, but an idle runtime waits for timers in epoll with
// millisecond resolution, and that lateness would be charged to every
// request; nanosleep wakes within tens of microseconds.
func sleepUntil(ctx context.Context, t time.Time) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := min(time.Until(t), 50*time.Millisecond)
		if d <= 0 {
			return nil
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop resumes it
	}
}

// closedLoop runs workers clients, each sending its next request as soon
// as the previous one completes, for dur. Worker w sends requests
// first+w, first+w+workers, … It returns the samples in completion
// order.
func closedLoop(ctx context.Context, c *loadClient, workers int, dur time.Duration, first int, next func(int) *request) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	stop := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := first + w; time.Now().Before(stop) && ctx.Err() == nil; i += workers {
				s := c.do(ctx, next(i), time.Now(), false)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
