package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcacc/internal/cluster"
	"gcacc/internal/fault"
	"gcacc/internal/service"
)

// Deadline-edge tests: the handler's status mapping at the boundaries of
// a request's lifetime — client gone mid-run, deadline spent in the
// queue, deadline spent before the request even arrived. Each must map
// onto its documented code (499/504) without touching the simulator more
// than its budget allows.

// pathBody returns an n-vertex path graph in the edges wire format —
// enough generations that an injected per-step delay dominates the run.
func pathBody(n int) string {
	var b strings.Builder
	b.WriteString(itoa(n) + " " + itoa(n-1) + "\n")
	for i := 0; i < n-1; i++ {
		b.WriteString(itoa(i) + " " + itoa(i+1) + "\n")
	}
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

// waitStats polls the service until cond holds or the deadline passes.
func waitStats(t *testing.T, svc *service.Service, cond func(service.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(svc.Stats()) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("condition never held; stats: %+v", svc.Stats())
}

func TestComponentsHandlerDisconnectMidRun(t *testing.T) {
	// The client vanishes while the engine is mid-run. An injected
	// per-step delay stretches the run so the cancellation is guaranteed
	// to land between generations; the interrupted run must surface as
	// 499, not 500 or 504.
	svc := service.New(service.Config{
		QueueDepth:  4,
		Workers:     1,
		MaxVertices: 64,
		Fault: fault.New(fault.Config{
			Seed:       1,
			StepDelayP: 1,
			StepDelay:  2 * time.Millisecond,
		}),
	})
	t.Cleanup(svc.Close)
	h := componentsHandler(svc, 1<<20, false)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Long enough for the job to be admitted and start stepping
		// (each of the ~50 generations takes ≥ 2ms), short enough that
		// plenty of run remains to interrupt.
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	req := httptest.NewRequest(http.MethodPost, "/v1/components",
		strings.NewReader(pathBody(8))).WithContext(ctx)
	w := httptest.NewRecorder()
	h(w, req)
	if w.Code != cluster.StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %q)", w.Code, cluster.StatusClientClosedRequest, w.Body.String())
	}
	errorBody(t, w)
}

func TestComponentsHandlerDeadlineExpiresInQueue(t *testing.T) {
	// A request whose deadline expires between queue admission and
	// engine start must answer 504 promptly — the worker discards the
	// dead job instead of running it — and the simulator must never see
	// it.
	svc := service.New(service.Config{
		QueueDepth:  4,
		Workers:     1,
		MaxVertices: 64,
		Fault: fault.New(fault.Config{
			Seed:       1,
			StepDelayP: 1,
			StepDelay:  2 * time.Millisecond,
		}),
	})
	t.Cleanup(svc.Close)
	h := componentsHandler(svc, 1<<20, false)

	// Occupy the only worker with a slow run (~50 generations × 2ms).
	blockerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/components",
			strings.NewReader(pathBody(8)))
		w := httptest.NewRecorder()
		h(w, req)
		blockerDone <- w
	}()
	waitStats(t, svc, func(st service.Stats) bool {
		return st.InFlight == 1 && st.QueueDepth == 0
	})
	before := svc.Stats()

	// The victim: admitted behind the blocker, deadline far shorter than
	// the blocker's remaining runtime.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/components?engine=gca",
		strings.NewReader(pathBody(4))).WithContext(ctx)
	w := httptest.NewRecorder()
	start := time.Now()
	h(w, req)
	elapsed := time.Since(start)

	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)
	// "Promptly": the 504 must not wait out the blocker's full run. The
	// blocker needs ≥ 100ms of injected delay; the victim's answer is
	// bounded by its own 2ms budget plus scheduling noise.
	if elapsed > 60*time.Millisecond {
		t.Errorf("504 took %v — the dead job waited on the running one", elapsed)
	}

	bw := <-blockerDone
	if bw.Code != http.StatusOK {
		t.Fatalf("blocker request failed: %d (body %q)", bw.Code, bw.Body.String())
	}
	var blocker cluster.WireOutcome
	if err := json.Unmarshal(bw.Body.Bytes(), &blocker); err != nil {
		t.Fatalf("decoding blocker response: %v", err)
	}
	// The worker dequeues the expired job only after the blocker's result
	// is out, so its cancellation is counted shortly after.
	waitStats(t, svc, func(st service.Stats) bool { return st.Canceled > 0 && st.InFlight == 0 })
	after := svc.Stats()
	// Only the blocker ever reached the simulator: the generation total
	// grew by exactly the blocker's run, none by the victim's.
	if got := after.Generations - before.Generations; got != int64(blocker.Generations) {
		t.Errorf("simulator ran %d generations after the victim was admitted; only the blocker's %d were allowed",
			got, blocker.Generations)
	}
}

func TestComponentsHandlerZeroBudgetDeadline(t *testing.T) {
	// A request arriving with its deadline already spent must be turned
	// away at admission — 504, nothing queued, nothing simulated.
	svc := newTestService(t)
	h := componentsHandler(svc, 1<<20, false)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/components",
		strings.NewReader("2 1\n0 1\n")).WithContext(ctx)
	w := httptest.NewRecorder()
	h(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)

	st := svc.Stats()
	if st.RejectedExpired != 1 {
		t.Errorf("rejected_expired = %d, want 1", st.RejectedExpired)
	}
	if st.Accepted != 0 || st.Completed != 0 || st.Generations != 0 {
		t.Errorf("zero-budget request reached the service: %+v", st)
	}
}

func TestComponentsHandlerFaultParamGatedByChaos(t *testing.T) {
	svc := newTestService(t)

	// Chaos off: the fault parameter is an error, and the message names
	// the flag that would enable it.
	h := componentsHandler(svc, 1<<20, false)
	w := postComponents(t, h, "?fault=seed=1,steperr=0.5", "2 1\n0 1\n")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("chaos off: status = %d, want 400 (body %q)", w.Code, w.Body.String())
	}
	if msg := errorBody(t, w); !strings.Contains(msg, "-chaos") {
		t.Fatalf("error %q does not name the -chaos flag", msg)
	}

	// Chaos on, malformed spec: still 400.
	h = componentsHandler(svc, 1<<20, true)
	w = postComponents(t, h, "?fault=steperr=yes", "2 1\n0 1\n")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad spec: status = %d, want 400 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)

	// Chaos on, benign schedule: the request runs and succeeds.
	w = postComponents(t, h, "?fault=seed=1,stepdelay=0.1:10us", "2 1\n0 1\n")
	if w.Code != http.StatusOK {
		t.Fatalf("benign spec: status = %d, want 200 (body %q)", w.Code, w.Body.String())
	}
}
