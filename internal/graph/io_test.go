package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := Gnp(17, 0.3, rng)
	var b strings.Builder
	if err := WriteMatrix(&b, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadMatrix(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("matrix round trip changed graph")
	}
}

func TestReadMatrixCommentsAndBlanks(t *testing.T) {
	in := "# adjacency for a single edge\n\n01\n10\n\n"
	g, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || !g.HasEdge(0, 1) {
		t.Fatalf("parsed graph wrong: n=%d", g.N())
	}
}

func TestReadMatrixEmpty(t *testing.T) {
	g, err := ReadMatrix(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 {
		t.Fatalf("empty input gave n=%d", g.N())
	}
}

func TestReadMatrixErrors(t *testing.T) {
	cases := map[string]string{
		"ragged":     "01\n1\n",
		"selfloop":   "10\n00\n",
		"asymmetric": "01\n00\n",
		"asymUpper":  "00\n10\n",
		"badchar":    "0x\n00\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrix(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := Gnp(25, 0.2, rng)
	var b strings.Builder
	if err := WriteEdgeList(&b, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("edge-list round trip changed graph")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"badHeader":  "x y\n",
		"negHeader":  "-1 0\n",
		"outOfRange": "2 1\n0 5\n",
		"selfLoop":   "2 1\n1 1\n",
		"badEdge":    "2 1\nfoo bar\n",
		"countShort": "3 2\n0 1\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a triangle\n3 3\n0 1\n# middle comment\n1 2\n0 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
}

func TestParserCaps(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("999999999 0\n")); err == nil {
		t.Fatal("edge-list parser accepted an absurd vertex count")
	}
}

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := RandomWeighted(12, 0.4, rng)
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d\n", g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "%d %d %d\n", e.U, e.V, e.W)
	}
	h, err := ReadWeightedEdgeList(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", h.N(), h.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if h.Weight(e.U, e.V) != e.W {
			t.Fatalf("weight of (%d,%d) changed", e.U, e.V)
		}
	}
}

func TestReadWeightedEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"badHeader": "x\n",
		"negHeader": "-1 0\n",
		"hugeN":     "99999999 0\n",
		"badEdge":   "2 1\nfoo\n",
		"selfLoop":  "2 1\n1 1 4\n",
		"range":     "2 1\n0 5 4\n",
		"zeroW":     "2 1\n0 1 0\n",
		"short":     "3 2\n0 1 5\n",
	}
	for name, in := range cases {
		if _, err := ReadWeightedEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseEdgeLine pins the shared tokenizer: fields split as
// strings.Fields splits them, a line whose first field starts with '#'
// is a comment, and the count comes back even when a field is bad.
func TestParseEdgeLine(t *testing.T) {
	for _, tc := range []struct {
		in     string
		fields int
		vals   [2]int64
		err    string
	}{
		{"", 0, [2]int64{}, ""},
		{" \t\v\f\r\u0085\u00a0\u2003\u3000", 0, [2]int64{}, ""},
		{"# 1 2", 0, [2]int64{}, ""},
		{"\u3000#1 2", 0, [2]int64{}, ""},
		{"3 4", 2, [2]int64{3, 4}, ""},
		{"\u00a0007\u2003010\u3000", 2, [2]int64{7, 10}, ""},
		{"1 2 # note", 4, [2]int64{1, 2}, ""},
		{"5", 1, [2]int64{5}, ""},
		{"1 +2", 2, [2]int64{1}, `bad number "+2"`},
		{"1x 2", 2, [2]int64{}, `bad number "1x"`},
		{"0\u200b1 2", 2, [2]int64{}, `bad number "0\u200b1"`}, // not white space
		{"1 1000", 2, [2]int64{1}, `number "1000" exceeds 999`},
		{"99999999999999999999 1", 2, [2]int64{}, `number "99999999999999999999" exceeds 999`},
	} {
		var vals [2]int64
		fields, err := ParseEdgeLine([]byte(tc.in), vals[:], 999)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if fields != tc.fields || got != tc.err || (err == nil && vals != tc.vals) {
			t.Errorf("ParseEdgeLine(%q) = %d %v %q, want %d %v %q", tc.in, fields, vals, got, tc.fields, tc.vals, tc.err)
		}
	}
}
