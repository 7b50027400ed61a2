package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

// A mutation trace is the replayable unit of the streaming tier: an
// interleaving of append batches, delete batches and component queries
// over one graph. Traces drive the differential conformance harness
// (verify.RunStream), the gca-cc -stream replay mode, and the
// FuzzMutationTrace fuzzer.

// OpKind discriminates trace operations.
type OpKind uint8

const (
	OpAppend OpKind = iota
	OpDelete
	OpQuery
)

// String returns the trace-format sigil for the kind.
func (k OpKind) String() string {
	switch k {
	case OpAppend:
		return "+"
	case OpDelete:
		return "-"
	case OpQuery:
		return "?"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one trace operation. Edges is nil for OpQuery.
type Op struct {
	Kind  OpKind
	Edges []sparse.Edge
}

// Trace is a replayable mutation sequence over a graph on N vertices.
type Trace struct {
	N   int
	Ops []Op
}

// Mutations counts the non-query operations.
func (t *Trace) Mutations() int {
	n := 0
	for _, op := range t.Ops {
		if op.Kind != OpQuery {
			n++
		}
	}
	return n
}

// Queries counts the query operations.
func (t *Trace) Queries() int { return len(t.Ops) - t.Mutations() }

// DecodeTrace maps an arbitrary byte string onto a valid trace — the
// total decoder behind FuzzMutationTrace, so every fuzzer input replays
// without a rejection path hiding bugs. The first byte picks the vertex
// count (2..65); each following byte either flushes a query or starts an
// edge op consuming two endpoint bytes, with self-loops bent to the next
// vertex. A trailing query is always appended so every trace checks its
// final state.
func DecodeTrace(data []byte) *Trace {
	t := &Trace{N: 2}
	if len(data) == 0 {
		t.Ops = []Op{{Kind: OpQuery}}
		return t
	}
	t.N = 2 + int(data[0])%64
	var batch []sparse.Edge
	kind := OpAppend
	flush := func() {
		if len(batch) > 0 {
			t.Ops = append(t.Ops, Op{Kind: kind, Edges: batch})
			batch = nil
		}
	}
	for i := 1; i < len(data); {
		c := data[i]
		i++
		var want OpKind
		switch c % 4 {
		case 0, 1:
			want = OpAppend // appends twice as likely: streams are append-heavy
		case 2:
			want = OpDelete
		default:
			flush()
			t.Ops = append(t.Ops, Op{Kind: OpQuery})
			continue
		}
		if i+1 >= len(data) {
			break
		}
		u := int(data[i]) % t.N
		v := int(data[i+1]) % t.N
		i += 2
		if u == v {
			v = (u + 1) % t.N
		}
		if u > v {
			u, v = v, u
		}
		if want != kind {
			flush()
			kind = want
		}
		batch = append(batch, sparse.Edge{U: int32(u), V: int32(v)})
	}
	flush()
	t.Ops = append(t.Ops, Op{Kind: OpQuery})
	return t
}

// The text trace format, one operation per line:
//
//	stream <n>
//	+ <u> <v> [<u> <v> ...]   append batch
//	- <u> <v> [<u> <v> ...]   delete batch
//	?                         components query
//
// Blank lines and #-comments are skipped. Numbers are strict decimals
// like the sparse edge-list format: no signs, no trailing junk.

// ReadTrace parses the text trace format.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, true
		}
		return "", false
	}

	head, ok := next()
	if !ok {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stream: empty trace")
	}
	fields := strings.Fields(head)
	if len(fields) != 2 || fields[0] != "stream" {
		return nil, fmt.Errorf("stream: line %d: header %q is not \"stream <n>\"", line, head)
	}
	n, err := parseVertex(fields[1])
	if err != nil {
		return nil, fmt.Errorf("stream: line %d: vertex count: %w", line, err)
	}
	t := &Trace{N: n}

	for {
		s, ok := next()
		if !ok {
			break
		}
		fields := strings.Fields(s)
		var kind OpKind
		switch fields[0] {
		case "+":
			kind = OpAppend
		case "-":
			kind = OpDelete
		case "?":
			if len(fields) != 1 {
				return nil, fmt.Errorf("stream: line %d: query takes no arguments: %q", line, s)
			}
			t.Ops = append(t.Ops, Op{Kind: OpQuery})
			continue
		default:
			return nil, fmt.Errorf("stream: line %d: op %q is not +, - or ?", line, fields[0])
		}
		args := fields[1:]
		if len(args) == 0 || len(args)%2 != 0 {
			return nil, fmt.Errorf("stream: line %d: %s needs an even, positive number of endpoints", line, fields[0])
		}
		edges := make([]sparse.Edge, 0, len(args)/2)
		for i := 0; i < len(args); i += 2 {
			u, err := parseVertex(args[i])
			if err != nil {
				return nil, fmt.Errorf("stream: line %d: %w", line, err)
			}
			v, err := parseVertex(args[i+1])
			if err != nil {
				return nil, fmt.Errorf("stream: line %d: %w", line, err)
			}
			edges = append(edges, sparse.Edge{U: int32(u), V: int32(v)})
		}
		t.Ops = append(t.Ops, Op{Kind: kind, Edges: edges})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteTrace renders t in the text trace format.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var line strings.Builder
	fmt.Fprintf(&line, "stream %d\n", t.N)
	for _, op := range t.Ops {
		if op.Kind == OpQuery {
			line.WriteString("?\n")
			continue
		}
		line.WriteString(op.Kind.String())
		for _, e := range op.Edges {
			fmt.Fprintf(&line, " %d %d", e.U, e.V)
		}
		line.WriteByte('\n')
	}
	if _, err := bw.WriteString(line.String()); err != nil {
		return err
	}
	return bw.Flush()
}

// ParseBatch reads an HTTP mutation body — one "u v" pair per line,
// blank lines and #-comments skipped, strict decimals, split by the
// edge-list tokenizer (graph.ParseEdgeLine) — into a batch of at most
// maxEdges edges (0 = unbounded; beyond it the error wraps
// ErrBatchLimit). Endpoint range and self-loop checks are the graph's
// job, where n is known. Lines are parsed in the scanner's buffer, so
// the allocations are per request (buffer, batch), not per line.
func ParseBatch(r io.Reader, maxEdges int) ([]sparse.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26) // the scanner's 4 KiB start, grown only for long lines
	var edges []sparse.Edge
	var uv [2]int64
	line := 0
	for sc.Scan() {
		line++
		k, err := graph.ParseEdgeLine(sc.Bytes(), uv[:], sparse.MaxVertices)
		switch {
		case k == 0:
			continue
		case k != 2:
			return nil, fmt.Errorf("stream: line %d: %q is not \"u v\"", line, bytes.TrimSpace(sc.Bytes()))
		case err != nil:
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		if maxEdges > 0 && len(edges) >= maxEdges {
			return nil, fmt.Errorf("%w: batch exceeds %d edges", ErrBatchLimit, maxEdges)
		}
		edges = append(edges, sparse.Edge{U: int32(uv[0]), V: int32(uv[1])})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
}

// parseVertex parses a trace's vertex count or endpoint.
func parseVertex(s string) (int, error) {
	v, err := graph.ParseDecimal([]byte(s), sparse.MaxVertices)
	return int(v), err
}
