package verify

import (
	"bytes"
	"testing"

	"gcacc/internal/cluster"
	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

// TestFingerprintAgreement pins the one fingerprint layout: a graph's
// dense and sparse representations hash identically, and so the same
// edge-list body lands on the same ring owner whichever parser read it.
// The serving tier keys its cache and ring on the sparse fingerprint,
// while clients that predict placement (the end-to-end benchmark among
// them) hash the dense graph.
func TestFingerprintAgreement(t *testing.T) {
	ring := cluster.NewRing([]int{0, 1, 2, 3}, cluster.DefaultVNodes)
	for _, n := range []int{5, 32, 100} {
		for _, c := range Corpus(n, 1) {
			d := c.Graph
			s := sparse.FromDense(d)
			if d.Fingerprint() != s.Fingerprint() {
				t.Errorf("%s: dense and sparse fingerprints differ", c.Name)
			}
			var body bytes.Buffer
			if err := graph.WriteEdgeList(&body, d); err != nil {
				t.Fatal(err)
			}
			pd, err := graph.ReadEdgeList(bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			ps, err := sparse.ReadEdgeStream(bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if ring.Owner(pd.Fingerprint()) != ring.Owner(ps.Fingerprint()) {
				t.Errorf("%s: the two parsers place one body on different owners", c.Name)
			}
		}
	}
	for _, n := range []int{64, 1000, sparse.DenseCutoff} {
		for _, c := range SparseCorpus(n, 1) {
			d, err := c.Graph.ToDense()
			if err != nil {
				t.Fatal(err)
			}
			if d.Fingerprint() != c.Graph.Fingerprint() {
				t.Errorf("%s: dense and sparse fingerprints differ", c.Name)
			}
		}
	}
}
