package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

// answer is what the oracle expects for one graph: its component count
// and a 64-bit hash of its super-node labelling (each vertex labelled
// with the smallest vertex of its component).
type answer struct {
	components int
	hash       uint64
}

// labelsHash is FNV-1a over the labels as little-endian 64-bit words.
func labelsHash(labels []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		for i := range b {
			b[i] = byte(uint64(l) >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// oracleAnswer labels a graph by union-find, independently of every
// engine the server runs.
func oracleAnswer(n int, edges []sparse.Edge) answer {
	g := sparse.New(n)
	for _, e := range edges {
		g.AddEdge(int(e.U), int(e.V))
	}
	labels := sparse.ConnectedComponentsUnionFind(g)
	return answer{components: sparse.ComponentCount(labels), hash: labelsHash(labels)}
}

// hasEdge reports whether the canonical sorted edge list holds e.
func hasEdge(sorted []sparse.Edge, e sparse.Edge) bool {
	i := sort.Search(len(sorted), func(i int) bool {
		return sorted[i].U > e.U || (sorted[i].U == e.U && sorted[i].V >= e.V)
	})
	return i < len(sorted) && sorted[i] == e
}

// checkLabels compares a served labelling with the oracle's answer.
func checkLabels(n, components int, labels []int, want answer) error {
	if len(labels) != n {
		return fmt.Errorf("wrong answer: %d labels for %d vertices", len(labels), n)
	}
	if components != want.components {
		return fmt.Errorf("wrong answer: %d components, oracle says %d", components, want.components)
	}
	if labelsHash(labels) != want.hash {
		return fmt.Errorf("wrong answer: labels differ from the oracle's")
	}
	return nil
}

// randomGraph draws m random edges on n vertices; duplicates collapse,
// so a few graphs have slightly fewer. The edges come back canonical:
// U < V, ascending, distinct.
func randomGraph(rng *rand.Rand, n, m int) []sparse.Edge {
	return sparse.RandomEdges(n, m, rng).Edges()
}

// randomEdge draws one canonical (U < V) edge on n ≥ 2 vertices.
func randomEdge(rng *rand.Rand, n int) sparse.Edge {
	u, v := int32(rng.Intn(n)), int32(rng.Intn(n-1))
	if v >= u {
		v++
	}
	if u > v {
		u, v = v, u
	}
	return sparse.Edge{U: u, V: v}
}

// edgeListBody renders a graph in the "edges" text format that
// graph.ReadEdgeList parses: an "n m" header, then one "u v" per line.
func edgeListBody(n int, edges []sparse.Edge) []byte {
	var b bytes.Buffer
	b.Grow(16 + 12*len(edges))
	b.WriteString(strconv.Itoa(n))
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(len(edges)))
	b.WriteByte('\n')
	writeEdges(&b, edges)
	return b.Bytes()
}

// writeEdges appends "u v" lines, the mutation-body format of the
// streaming API.
func writeEdges(b *bytes.Buffer, edges []sparse.Edge) {
	for _, e := range edges {
		b.WriteString(strconv.Itoa(int(e.U)))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(int(e.V)))
		b.WriteByte('\n')
	}
}

// mutation is one applied stream batch, placed by the epoch the server
// assigned it.
type mutation struct {
	epoch uint64
	add   bool
	edges []sparse.Edge
}

// observation is one stream query answer.
type observation struct {
	epoch      uint64
	components int
}

// streamReplay applies the mutations in epoch order on top of the
// initial edges and checks every observation's component count against
// union-find at its epoch. It returns the number of wrong answers and
// the live edge set after the last mutation. An epoch that is missing,
// repeated or not yet reached counts as a wrong answer too.
func streamReplay(n int, initial []sparse.Edge, firstEpoch uint64, muts []mutation, obs []observation) (wrong int, live map[sparse.Edge]struct{}) {
	live = make(map[sparse.Edge]struct{}, len(initial))
	for _, e := range initial {
		live[e] = struct{}{}
	}
	sort.Slice(muts, func(i, j int) bool { return muts[i].epoch < muts[j].epoch })
	sort.Slice(obs, func(i, j int) bool { return obs[i].epoch < obs[j].epoch })

	uf := graph.NewUnionFind(n)
	rebuild := func() {
		uf = graph.NewUnionFind(n)
		for e := range live {
			uf.Union(int(e.U), int(e.V))
		}
	}
	rebuild()
	epoch, dirty, next := firstEpoch, false, 0
	for _, m := range muts {
		if m.epoch != epoch+1 {
			wrong++ // a gap or a duplicate: the server's history is not a sequence
		}
		for ; next < len(obs) && obs[next].epoch <= epoch; next++ {
			if dirty {
				rebuild()
				dirty = false
			}
			if obs[next].epoch != epoch || obs[next].components != uf.Sets() {
				wrong++
			}
		}
		epoch = m.epoch
		for _, e := range m.edges {
			if m.add {
				live[e] = struct{}{}
				uf.Union(int(e.U), int(e.V))
			} else if _, ok := live[e]; ok {
				delete(live, e)
				dirty = true
			}
		}
	}
	if dirty {
		rebuild()
	}
	for ; next < len(obs); next++ {
		if obs[next].epoch != epoch || obs[next].components != uf.Sets() {
			wrong++
		}
	}
	return wrong, live
}
