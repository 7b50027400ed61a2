package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"gcacc/internal/graph"
)

// The streaming edge-list parser reads the same "edges" text format as
// the dense graph.ReadEdgeList, through the same reader and tokenizer
// (graph.EdgeLines), but never builds an n² structure, so it scales
// to the million-vertex inputs this package exists for. Its vertex cap
// is MaxStreamVertices, not graph.MaxParseVertices: memory here is
// Θ(n + m), so the guard only has to bound honest allocation, not an n²
// blow-up.
//
// A hostile header cannot force a large allocation: edge capacity grows
// by append from a bounded initial hint, and vertex-side allocation is
// checked against the cap before anything is reserved.

// MaxStreamVertices is the largest vertex count ReadEdgeStream accepts.
const MaxStreamVertices = MaxVertices

// maxPrealloc bounds what the parser reserves up front on the strength of
// the header alone (entries, not bytes); beyond it, append growth takes
// over and is paid for only by actual input.
const maxPrealloc = 1 << 20

// ReadEdgeStream parses "edges" format into a sparse graph in a single
// streaming pass. Duplicate edges collapse; self-loops and out-of-range
// endpoints are errors, as is an edge count that disagrees with the
// header.
func ReadEdgeStream(r io.Reader) (*Graph, error) {
	var el graph.EdgeLines
	el.Start(r, 2, MaxStreamVertices)
	g := New(el.N)
	g.edges = make([]Edge, 0, min(el.M, maxPrealloc))
	last := uint64(0) // the canonical order's key of the previous edge
	for el.Next() {
		u, v := int32(el.Vals[0]), int32(el.Vals[1])
		if u > v {
			u, v = v, u
		}
		e := Edge{u, v}
		// A list that arrives strictly ascending, as WriteEdgeStream
		// writes it, is canonical already and skips the sort.
		if len(g.edges) > 0 && e.key() <= last {
			g.canon = false
		}
		last = e.key()
		g.edges = append(g.edges, e)
	}
	if err := el.Err(); err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	g.canonicalise()
	return g, nil
}

// WriteEdgeStream writes g in "edges" format (canonical order),
// formatting integers without fmt's reflection: the writer serialises
// million-edge graphs and every peer-bound request.
func WriteEdgeStream(w io.Writer, g *Graph) error {
	g.canonicalise()
	bw := bufio.NewWriter(w)
	buf := appendPair(make([]byte, 0, 24), g.n, len(g.edges))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for _, e := range g.edges {
		buf = appendPair(buf[:0], int(e.U), int(e.V))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func appendPair(buf []byte, a, b int) []byte {
	buf = strconv.AppendInt(buf, int64(a), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(b), 10)
	return append(buf, '\n')
}
