package graph

import (
	"strings"
	"testing"
)

// Fuzz targets for the text parsers: arbitrary input must never panic,
// and anything that parses must round-trip through the writer and back
// unchanged. Seed corpora live in testdata/fuzz/<target>/ and run as
// ordinary seed inputs during `go test`; `make fuzz-smoke` mutates them.

func FuzzParseEdges(f *testing.F) {
	f.Add("3 2\n0 1\n1 2\n")
	f.Add("1 0\n")
	f.Add("# comment\n2 1\n0 1\n")
	f.Add("2 1\n1 1\n")
	f.Add("")
	f.Add("999999999 0\n")
	f.Add("4 2\n0 1\n\n# gap\n2 3\n")
	f.Add("3 1\n0 1\n0 1\n") // duplicate edge: parses, collapses to one
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		if g.N() > 4096 {
			return // round-tripping huge graphs is out of scope for fuzzing
		}
		var b strings.Builder
		if err := WriteEdgeList(&b, g); err != nil {
			t.Fatalf("write after successful parse: %v", err)
		}
		h, err := ReadEdgeList(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if !g.Equal(h) {
			t.Fatal("round trip changed graph")
		}
		if g.Fingerprint() != h.Fingerprint() {
			t.Fatal("round trip changed fingerprint")
		}
	})
}

func FuzzParseMatrix(f *testing.F) {
	f.Add("01\n10\n")
	f.Add("0\n")
	f.Add("")
	f.Add("# c\n010\n101\n010\n")
	f.Add("11\n11\n")
	f.Add("0101\n1010\n0101\n1010\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMatrix(strings.NewReader(in))
		if err != nil {
			return
		}
		if !isSymmetric(g.Adjacency()) {
			t.Fatal("parser accepted an asymmetric matrix")
		}
		var b strings.Builder
		if err := WriteMatrix(&b, g); err != nil {
			t.Fatalf("write after successful parse: %v", err)
		}
		h, err := ReadMatrix(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if !g.Equal(h) {
			t.Fatal("round trip changed graph")
		}
		if g.Fingerprint() != h.Fingerprint() {
			t.Fatal("round trip changed fingerprint")
		}
	})
}
