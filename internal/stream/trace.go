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
