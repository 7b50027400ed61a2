package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Text formats supported by the CLI tools:
//
//   - "matrix": n lines of n '0'/'1' characters — the paper's adjacency
//     matrix A verbatim. Blank lines and lines starting with '#' are
//     ignored.
//   - "edges": a header line "n m" followed by m lines "u v" — the common
//     edge-list exchange format.
//
// Both parsers validate symmetry/self-loop constraints and return errors
// (never panic) on malformed input.
//
// Because the dense adjacency representation costs n² bits, the parsers
// refuse inputs above MaxParseVertices: untrusted input must not be able
// to demand gigabytes with a two-token header. Construct larger graphs
// programmatically via New/AddEdge if you really need them.

// MaxParseVertices is the largest vertex count the text parsers accept
// (n² bits ≈ 32 MiB of adjacency at the cap).
const MaxParseVertices = 16384

// maxDecimal is the largest cap ParseDecimal takes: ten times it plus a
// digit still fits an int64, so the accumulation never overflows before
// the cap check. The edge-list headers and weights are read under it.
const maxDecimal = 1 << 59

// ParseEdgeLine is the one tokenizer of the edge-list text formats —
// ReadEdgeList, ReadWeightedEdgeList, the sparse ReadEdgeStream and the
// stream tier's mutation batches all call it. It splits line into
// fields on Unicode white space, exactly as strings.Fields does, and
// parses the first len(dst) fields with ParseDecimal into dst.
//
// It returns the number of fields on the line: 0 for a blank line or a
// comment (first non-space character '#'). A caller checks that count
// first and reports a wrong one in its own words; err is the first
// malformed field among those parsed.
func ParseEdgeLine(line []byte, dst []int64, max int64) (fields int, err error) {
	// ASCII bytes take the inline loops; span settles everything else.
	for i := 0; ; {
		for i < len(line) && line[i] < utf8.RuneSelf && asciiSpace[line[i]] {
			i++
		}
		if i < len(line) && line[i] >= utf8.RuneSelf {
			i = span(line, i, true)
		}
		if i == len(line) {
			return fields, err
		}
		if fields == 0 && line[i] == '#' {
			return 0, nil
		}
		// Accumulate the field's digit run in place; a field that goes on
		// past it, or may exceed max, takes ParseDecimal for its error.
		j, v := i, int64(0)
		for ; j < len(line); j++ {
			d := line[j] - '0'
			if d > 9 {
				break
			}
			v = v*10 + int64(d)
		}
		end := j
		if j < len(line) && (line[j] >= utf8.RuneSelf || !asciiSpace[line[j]]) {
			end = span(line, j, false)
		}
		if fields < len(dst) && err == nil {
			dst[fields] = v
			if end != j || v > max || j-i > 18 { // 18 digits cannot wrap an int64
				_, err = ParseDecimal(line[i:end], max)
			}
		}
		fields++
		i = end
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// span returns the index of the first rune at or after i that is white
// space when space is false, or is not when space is true.
func span(b []byte, i int, space bool) int {
	for i < len(b) {
		r, size := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(b[i:])
		}
		if unicode.IsSpace(r) != space {
			return i
		}
		i += size
	}
	return i
}

// ParseDecimal parses a strict non-negative decimal: digits only — no
// sign marks, no trailing junk — and at most max, which must not exceed
// 1<<59.
func ParseDecimal(s []byte, max int64) (int64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad number %q", string(s))
		}
		if v = v*10 + int64(c-'0'); v > max {
			return 0, fmt.Errorf("number %q exceeds %d", string(s), max)
		}
	}
	return v, nil
}

// EdgeLines reads the edge-list text formats: a header line "n m", then
// m data lines of a fixed number of fields, the first two an edge's
// endpoints. Blank lines and '#' comments are skipped anywhere. It
// checks the header against a vertex cap, every endpoint against n,
// self-loops and the edge count; the parsers built on it keep only
// their sinks, caps and error prefixes. Use it like bufio.Scanner:
//
//	var el EdgeLines
//	el.Start(r, 2, MaxParseVertices)
//	g := New(el.N)
//	for el.Next() { /* el.Vals[0], el.Vals[1] */ }
//	err := el.Err()
type EdgeLines struct {
	// N and M are the header's vertex and edge counts.
	N, M int
	// Vals holds the current data line's numbers.
	Vals [3]int64

	sc    bufio.Scanner // by value: an EdgeLines on the caller's stack allocates only the buffer
	width int
	read  int
	err   error
}

// Start begins reading r as an edge list whose data lines carry width
// (2 or 3) numbers, and reads its header, refusing more than maxN
// vertices. A bad header leaves N and M zero; like every later error
// it surfaces at Err, and Next reports false.
func (el *EdgeLines) Start(r io.Reader, width, maxN int) {
	*el = EdgeLines{sc: *bufio.NewScanner(r), width: width}
	el.sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	switch {
	case !el.scan(2, "edge-list header"):
		if el.err == nil {
			el.err = errors.New("empty edge-list input")
		}
	case el.Vals[0] > int64(maxN):
		el.err = fmt.Errorf("header asks for %d vertices, parser cap is %d", el.Vals[0], maxN)
	default:
		el.N, el.M = int(el.Vals[0]), int(el.Vals[1])
	}
}

// Next advances to the next edge, reporting false at the end of the
// input or on the first error.
func (el *EdgeLines) Next() bool {
	if el.err != nil || !el.scan(el.width, "edge line") {
		if el.err == nil && el.read != el.M {
			el.err = fmt.Errorf("header promised %d edges, got %d", el.M, el.read)
		}
		return false
	}
	u, v := el.Vals[0], el.Vals[1]
	switch {
	case u >= int64(el.N) || v >= int64(el.N):
		el.err = fmt.Errorf("edge (%d,%d) out of range [0,%d)", u, v, el.N)
	case u == v:
		el.err = fmt.Errorf("self-loop (%d,%d)", u, v)
	default:
		el.read++
		return true
	}
	return false
}

// Err returns the first error met, nil at a well-formed end.
func (el *EdgeLines) Err() error { return el.err }

// scan tokenizes the next data line's want numbers into Vals.
func (el *EdgeLines) scan(want int, what string) bool {
	for el.sc.Scan() {
		line := el.sc.Bytes()
		k, err := ParseEdgeLine(line, el.Vals[:want], maxDecimal)
		if k == 0 {
			continue
		}
		if k != want {
			err = fmt.Errorf("want %d numbers, got %d", want, k)
		}
		if err != nil {
			el.err = fmt.Errorf("bad %s %q: %w", what, string(bytes.TrimSpace(line)), err)
			return false
		}
		return true
	}
	if err := el.sc.Err(); err != nil {
		el.err = fmt.Errorf("reading edge list: %w", err)
	}
	return false
}

// WriteMatrix writes g in "matrix" format.
func WriteMatrix(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(g.String()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMatrix parses "matrix" format. The number of vertices is inferred
// from the first data line.
func ReadMatrix(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var rows []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rows = append(rows, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading matrix: %w", err)
	}
	n := len(rows)
	if n == 0 {
		return New(0), nil
	}
	if n > MaxParseVertices {
		return nil, fmt.Errorf("graph: matrix has %d rows, parser cap is %d", n, MaxParseVertices)
	}
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("graph: matrix row %d has %d columns, want %d", i, len(row), n)
		}
		for j := 0; j < n; j++ {
			switch row[j] {
			case '0', '1':
			default:
				return nil, fmt.Errorf("graph: matrix row %d has invalid character %q", i, row[j])
			}
		}
		if row[i] == '1' {
			return nil, fmt.Errorf("graph: matrix has self-loop at vertex %d", i)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rows[i][j] != rows[j][i] {
				return nil, fmt.Errorf("graph: matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rows[i][j] == '1' {
				g.AddEdge(i, j)
			}
		}
	}
	return g, nil
}

// ReadWeightedEdgeList parses the weighted "u v w" edge-list format.
func ReadWeightedEdgeList(r io.Reader) (*Weighted, error) {
	var el EdgeLines
	el.Start(r, 3, MaxParseVertices)
	g := NewWeighted(el.N)
	for el.Next() {
		u, v, w := int(el.Vals[0]), int(el.Vals[1]), el.Vals[2]
		if w <= 0 {
			return nil, fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, u, v)
		}
		g.AddEdge(u, v, w)
	}
	if err := el.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return g, nil
}

// WriteEdgeList writes g in "edges" format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	edges := g.Edges()
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), len(edges)); err != nil {
		return err
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses "edges" format.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	var el EdgeLines
	el.Start(r, 2, MaxParseVertices)
	g := New(el.N)
	for el.Next() {
		g.AddEdge(int(el.Vals[0]), int(el.Vals[1]))
	}
	if err := el.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return g, nil
}
