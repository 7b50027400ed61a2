package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"gcacc/internal/sparse"
)

func TestTraceTextRoundTrip(t *testing.T) {
	in := "# seeded trace\nstream 6\n\n+ 0 1 1 2\n? \n- 0 1\n+ 3 4\n?\n"
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	want := &Trace{N: 6, Ops: []Op{
		{Kind: OpAppend, Edges: []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}},
		{Kind: OpQuery},
		{Kind: OpDelete, Edges: []sparse.Edge{{U: 0, V: 1}}},
		{Kind: OpAppend, Edges: []sparse.Edge{{U: 3, V: 4}}},
		{Kind: OpQuery},
	}}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("trace = %+v, want %+v", tr, want)
	}
	if tr.Mutations() != 3 || tr.Queries() != 2 {
		t.Fatalf("mutations/queries = %d/%d", tr.Mutations(), tr.Queries())
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	tr2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace(WriteTrace): %v", err)
	}
	if !reflect.DeepEqual(tr, tr2) {
		t.Fatalf("round trip changed the trace: %+v vs %+v", tr, tr2)
	}
}

func TestReadTraceErrors(t *testing.T) {
	for _, in := range []string{
		"",                       // empty
		"# only comments\n",      // no header
		"graph 5\n",              // wrong header keyword
		"stream\n",               // missing n
		"stream 5 extra\n",       // trailing junk in header
		"stream +5\n",            // sign mark
		"stream 5\n* 0 1\n",      // unknown op
		"stream 5\n+\n",          // append without endpoints
		"stream 5\n+ 0\n",        // odd endpoint count
		"stream 5\n+ 0 1 2\n",    // odd endpoint count
		"stream 5\n+ 0 x\n",      // bad number
		"stream 5\n+ 0 1\n? 1\n", // query with arguments
		"stream 5\n- -1 0\n",     // sign mark on endpoint
		"stream 99999999999\n",   // vertex count overflow
	} {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTrace(%q) accepted, want error", in)
		}
	}
}

func TestDecodeTraceTotal(t *testing.T) {
	// Every byte string decodes to a replayable trace: valid n, in-range
	// canonical edges, no self-loops, and a trailing query.
	inputs := [][]byte{
		nil,
		{},
		{0},
		{0xff},
		{0, 0, 0, 0},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{255, 255, 255, 255, 255},
		[]byte("arbitrary text becomes a trace"),
	}
	// A deterministic pseudo-random blob, no global rand needed.
	blob := make([]byte, 512)
	x := uint32(2463534242)
	for i := range blob {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		blob[i] = byte(x)
	}
	inputs = append(inputs, blob)

	for _, in := range inputs {
		tr := DecodeTrace(in)
		if tr.N < 2 || tr.N > 65 {
			t.Fatalf("DecodeTrace(%v): n = %d outside [2,65]", in, tr.N)
		}
		if len(tr.Ops) == 0 || tr.Ops[len(tr.Ops)-1].Kind != OpQuery {
			t.Fatalf("DecodeTrace(%v): missing trailing query", in)
		}
		for _, op := range tr.Ops {
			if op.Kind == OpQuery {
				if op.Edges != nil {
					t.Fatalf("query op carries edges")
				}
				continue
			}
			if len(op.Edges) == 0 {
				t.Fatalf("empty mutation batch")
			}
			for _, e := range op.Edges {
				if e.U < 0 || e.V < 0 || int(e.U) >= tr.N || int(e.V) >= tr.N || e.U >= e.V {
					t.Fatalf("DecodeTrace(%v): bad edge %+v for n=%d", in, e, tr.N)
				}
			}
		}
	}
}

func TestDecodeTraceDeterministic(t *testing.T) {
	in := []byte{17, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a, b := DecodeTrace(in), DecodeTrace(in)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DecodeTrace not deterministic")
	}
}

func TestParseBatch(t *testing.T) {
	edges, err := ParseBatch(strings.NewReader("# batch\n0 1\n\n 2   3 \n"), 0)
	if err != nil {
		t.Fatalf("ParseBatch: %v", err)
	}
	want := []sparse.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}

	// Fields split on any Unicode white space, as strings.Fields does.
	for in, want := range map[string][]sparse.Edge{
		"\t0\t1\t\r\n":     {{U: 0, V: 1}},
		"\v0 \f 1\n":       {{U: 0, V: 1}},
		"0\u00a01\u2003\n": {{U: 0, V: 1}},
		"007 010\n#x\n":    {{U: 7, V: 10}},
		"  # indented\n":   nil,
		"":                 nil,
	} {
		edges, err := ParseBatch(strings.NewReader(in), 0)
		if err != nil || !reflect.DeepEqual(edges, want) {
			t.Errorf("ParseBatch(%q) = %v, %v; want %v", in, edges, err, want)
		}
	}

	for _, tc := range []struct{ in, err string }{
		{"0 1 2\n", `stream: line 1: "0 1 2" is not "u v"`},
		{"0\n", `stream: line 1: "0" is not "u v"`},
		{"0 1\n\n 5 \n", `stream: line 3: "5" is not "u v"`},
		{"0\u00a01\u00a02\n", `stream: line 1: "0\u00a01\u00a02" is not "u v"`},
		{"0 +1\n", `stream: line 1: bad number "+1"`},
		{"-1 0\n", `stream: line 1: bad number "-1"`},
		{"0 1junk\n", `stream: line 1: bad number "1junk"`},
		{"a b\n", `stream: line 1: bad number "a"`},
		{"0,1\n", `stream: line 1: "0,1" is not "u v"`},
		{"0x1 2\n", `stream: line 1: bad number "0x1"`},
		{"0 \xff\n", `stream: line 1: bad number "\xff"`},
		{"0 1\n1 2 # note\n", `stream: line 2: "1 2 # note" is not "u v"`},
		{"1 67108865\n", `stream: line 1: number "67108865" exceeds 67108864`},
		{"99999999999999999999 0\n", `stream: line 1: number "99999999999999999999" exceeds 67108864`},
	} {
		_, err := ParseBatch(strings.NewReader(tc.in), 0)
		if err == nil || err.Error() != tc.err {
			t.Errorf("ParseBatch(%q) error = %v, want %s", tc.in, err, tc.err)
		}
	}

	_, err = ParseBatch(strings.NewReader("0 1\n1 2\n2 3\n"), 2)
	if !errors.Is(err, ErrBatchLimit) {
		t.Fatalf("over-limit batch: %v, want ErrBatchLimit", err)
	}
	if _, err := ParseBatch(strings.NewReader("0 1\n1 2\n"), 2); err != nil {
		t.Fatalf("at-limit batch rejected: %v", err)
	}
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

// WriteTrace renders t in the text trace format.
func WriteTrace(w io.Writer, t *Trace) error {
	var b strings.Builder
	fmt.Fprintf(&b, "stream %d\n", t.N)
	for _, op := range t.Ops {
		if op.Kind == OpQuery {
			b.WriteString("?\n")
			continue
		}
		b.WriteString(op.Kind.String())
		for _, e := range op.Edges {
			fmt.Fprintf(&b, " %d %d", e.U, e.V)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
