package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps a traced run's spans in memory; write dumps them as JSON
// when the run ends. Span IDs start at 1, so parent 0 marks a root. A
// tracer is filled from one goroutine.
type tracer struct {
	t0          time.Time
	client      *loadClient
	spans       []span
	generations []float64 // engine generations (or rounds) per in-process run
}

func newTracer(c *loadClient) *tracer { return &tracer{t0: time.Now(), client: c} }

func (t *tracer) add(req int, name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// begin opens a span that end closes.
func (t *tracer) begin(req int, name string, parent int) int {
	now := time.Now()
	return t.add(req, name, parent, now, now)
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// addRequest records one traced HTTP request: the root runs from the
// request's due time to its last body byte; the client's connection
// wait, write and read and the server's share hang below it. The
// server's queue wait and engine run come from the response, placed at
// the start of the server span, since the client cannot see where in it
// they fell.
func (t *tracer) addRequest(req int, s *sample) {
	if s.err != nil || s.firstByte.IsZero() {
		return
	}
	root := t.add(req, "request", 0, s.due, s.done)
	t.add(req, "client.conn_wait", root, s.getConn, s.gotConn)
	t.add(req, "client.write", root, s.gotConn, s.wrote)
	srv := t.add(req, "server", root, s.wrote, s.firstByte)
	t.add(req, "client.read", root, s.firstByte, s.done)
	if s.reply.cached || s.req.kind != opRead {
		return
	}
	wait := time.Duration(s.reply.waitUS) * time.Microsecond
	run := time.Duration(s.reply.runUS) * time.Microsecond
	if wait > 0 {
		t.add(req, "service.queue_wait", srv, s.wrote, s.wrote.Add(wait))
	}
	if run > 0 {
		t.add(req, "engine.run", srv, s.wrote.Add(wait), s.wrote.Add(wait+run))
	}
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
