package sparse

import (
	"bytes"
	"strings"
	"testing"

	"gcacc/internal/graph"
)

// FuzzParseEdgeStream drives the streaming parser with arbitrary text.
// Beyond not crashing, three properties are checked:
//
//   - dense agreement, both ways: the dense parser accepts an input iff
//     the stream parser does, except that the stream side alone accepts
//     vertex counts beyond the dense n² cap; accepted inputs decode to
//     the same graph (modulo duplicate-edge collapse, which both sides
//     perform), compared via the shared fingerprint;
//   - write/read round trip: re-serialising and re-parsing reproduces
//     the same graph (canonical form is a fixpoint);
//   - engine sanity: the Liu–Tarjan default variant agrees with
//     union-find on whatever the fuzzer managed to construct.
func FuzzParseEdgeStream(f *testing.F) {
	f.Add("4 3\n0 1\n1 2\n2 3\n")
	f.Add("1 0\n")
	f.Add("# comment\n6 2\n\n0 5\n 1  4 \n")
	f.Add("5 4\n0 1\n0 2\n0 3\n0 4\n")
	f.Add("3 3\n0 1\n1 2\n0 2\n")
	f.Add("16384 1\n0 16383\n")
	f.Add("bad header\n")
	f.Add("4 2\n0 1\n1 1\n")
	f.Add("3\v2\n0\f1\n1\u00a02\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeStream(strings.NewReader(input))
		d, derr := graph.ReadEdgeList(strings.NewReader(input))
		if err != nil {
			if derr == nil {
				t.Fatalf("stream parser rejected an input the dense parser accepted: %v", err)
			}
			return // malformed input must error, never panic
		}
		if g.N() <= graph.MaxParseVertices {
			if derr != nil {
				t.Fatalf("dense parser rejected an input the stream parser accepted: %v", derr)
			}
			if d.Fingerprint() != g.Fingerprint() {
				t.Fatal("stream and dense parsers decoded different graphs")
			}
			if g.N() <= DenseCutoff {
				dd, err := g.ToDense()
				if err != nil {
					t.Fatal(err)
				}
				if !dd.Equal(d) {
					t.Fatal("ToDense disagrees with the dense parser")
				}
			}
		}

		var buf bytes.Buffer
		if err := WriteEdgeStream(&buf, g); err != nil {
			t.Fatalf("serialising an accepted graph: %v", err)
		}
		back, err := ReadEdgeStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing our own output: %v", err)
		}
		if !back.Equal(g) || back.Fingerprint() != g.Fingerprint() {
			t.Fatal("write/read round trip changed the graph")
		}

		if g.N() <= 4096 {
			res, err := LiuTarjan(g, Options{Variant: DefaultVariant})
			if err != nil {
				t.Fatal(err)
			}
			want := ConnectedComponentsUnionFind(g)
			for v := range want {
				if res.Labels[v] != want[v] {
					t.Fatalf("liutarjan disagrees with union-find at vertex %d", v)
				}
			}
		}
	})
}
