// Package sparse is the million-vertex substrate of the reproduction:
// an undirected graph stored as an edge list with a lazily built CSR
// (compressed sparse row) view, a streaming edge-list parser that never
// materialises an n² structure, scale-parameterized workload generators,
// and two label-propagation connectivity engines that run on the edge
// list directly — the Liu–Tarjan simple concurrent labeling algorithms
// (liutarjan.go) and a deterministic adaptation of the
// Liu–Tarjan–Zhong log-diameter algorithm (logdiameter.go).
//
// The dense `internal/graph.Graph` is the paper's input representation
// and costs n² bits of adjacency; every engine built on it (the GCA
// field is (n+1)×n cells) caps practical n in the low thousands. This
// package is the other regime: memory is Θ(n + m), so n = 10⁶ with
// m = O(n) edges fits in tens of megabytes. Below DenseCutoff the two
// representations interconvert (FromDense/ToDense) without any
// intermediate materialisation — the converters write straight into the
// target's backing arrays — so the facade can route a dense request to a
// sparse engine and a small sparse graph to a dense engine. It is also
// the serving tier's one request representation: requests arrive as
// edge lists, and only the dense engines densify.
//
// A graph's canonical form (edges sorted ascending, deduplicated) is
// built lazily and only for what needs it: Edges, M, Fingerprint, Equal,
// Clone and the CSR view. The engines do not — their labels and rounds
// depend only on the edge set — so Borrow hands them a caller's unsorted
// list without a copy or a sort.
//
// Vertex ids are int32 internally (MaxVertices bounds n), labels are
// exchanged as []int to match the facade's labelling convention: every
// engine labels each vertex with the smallest vertex index of its
// component.
package sparse

import (
	"cmp"
	"fmt"
	"slices"

	"gcacc/internal/graph"
)

// DenseCutoff is the largest vertex count for which the dense n²-bit
// representation (and the engines built on it — the GCA field alone is
// (n+1)×n cells) is considered affordable: 4096 vertices is 2 MiB of
// adjacency but ~16.8 M GCA cells. Above it, only the sparse engines
// and the sequential baseline are offered; the serving layer enforces
// exactly this boundary at admission.
const DenseCutoff = 4096

// MaxVertices is the largest vertex count the sparse representation
// accepts (int32 ids with headroom; ~67M vertices).
const MaxVertices = 1 << 26

// Edge is an undirected edge with U < V in canonical form.
type Edge struct {
	U, V int32
}

// key orders edges as the canonical form does: by U, then by V.
func (e Edge) key() uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// Graph is an undirected graph on vertices 0..n-1 backed by an edge
// list. Self-loops are rejected; parallel edges are collapsed by the
// canonicalisation pass (sort + dedupe) that runs lazily before any
// query that needs the canonical form (see the package doc).
type Graph struct {
	n     int
	edges []Edge
	canon bool // edges sorted ascending and deduplicated
	// borrowed marks edges as the caller's slice (see Borrow): it is
	// copied before anything reorders it.
	borrowed bool

	// CSR view, built on demand by csr(): off has n+1 entries, adj lists
	// each vertex's neighbours (both directions) in ascending order.
	off []int64
	adj []int32
}

// New returns an empty sparse graph on n vertices. It panics if n is
// negative or exceeds MaxVertices.
func New(n int) *Graph {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("sparse: vertex count %d out of range [0,%d]", n, MaxVertices))
	}
	return &Graph{n: n, canon: true}
}

// Borrow returns a graph on n vertices over the caller's edge list,
// without copying it. The list must hold in-range edges with U < V; it
// need not be sorted, and it should be duplicate-free — duplicates make
// the engines slower, never wrong. The graph never reorders or writes
// the list (any canonicalisation sorts a private copy, and AddEdge
// reallocates), but it reads it until its last use, so the caller must
// not mutate the list before then.
func Borrow(n int, edges []Edge) *Graph {
	g := New(n)
	g.edges, g.canon, g.borrowed = edges[:len(edges):len(edges)], false, true
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of distinct edges.
func (g *Graph) M() int {
	g.canonicalise()
	return len(g.edges)
}

// AddEdge inserts the undirected edge {u, v}. Duplicate insertions
// collapse. It panics on out-of-range vertices or a self-loop, matching
// the dense graph's contract.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("sparse: self-loop at vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	g.edges = append(g.edges, Edge{int32(u), int32(v)})
	g.canon, g.borrowed = false, false
	g.off, g.adj = nil, nil
}

// Edges returns the canonical edge list (U < V, ascending, deduplicated).
// The slice is shared with the graph; callers must not mutate it.
func (g *Graph) Edges() []Edge {
	g.canonicalise()
	return g.edges
}

// engineEdges is the list an engine scans: a borrowed list as stored;
// any other graph's in canonical form, which drops the duplicates AddEdge
// may have collected and is kept for the graph's later Fingerprint.
func (g *Graph) engineEdges() []Edge {
	if g.borrowed {
		return g.edges
	}
	return g.Edges()
}

// canonicalise sorts the edge list ascending and collapses duplicates,
// on a private copy when the list is borrowed.
func (g *Graph) canonicalise() {
	if g.canon {
		return
	}
	if g.borrowed {
		g.edges = append([]Edge(nil), g.edges...)
		g.borrowed = false
	}
	slices.SortFunc(g.edges, func(a, b Edge) int { return cmp.Compare(a.key(), b.key()) })
	g.edges = slices.Compact(g.edges)
	g.canon = true
}

// csr returns (building if needed) the CSR adjacency view.
func (g *Graph) csr() ([]int64, []int32) {
	if g.off != nil {
		return g.off, g.adj
	}
	g.canonicalise()
	off := make([]int64, g.n+1)
	for _, e := range g.edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for i := 0; i < g.n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]int32, off[g.n])
	next := make([]int64, g.n)
	copy(next, off[:g.n])
	// Edges are canonical (ascending), so per-vertex neighbour runs come
	// out ascending as well: for a fixed u, the V endpoints arrive in
	// order, and the U endpoints written into v's run arrive in order too.
	for _, e := range g.edges {
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	g.off, g.adj = off, adj
	return off, adj
}

// Equal reports whether g and h have the same vertex count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	g.canonicalise()
	h.canonicalise()
	if g.n != h.n || len(g.edges) != len(h.edges) {
		return false
	}
	for i := range g.edges {
		if g.edges[i] != h.edges[i] {
			return false
		}
	}
	return true
}

// Fingerprint returns the graph's content hash in the layout of
// graph.EdgeHash: equal to the dense graph's (*graph.Graph).Fingerprint
// for the same vertex count and edge set, so either representation
// keys the serving cache and the cluster ring alike.
func (g *Graph) Fingerprint() [32]byte {
	g.canonicalise()
	d := graph.NewEdgeHash(g.n, len(g.edges))
	for _, e := range g.edges {
		d.Add(int(e.U), int(e.V))
	}
	return d.Sum()
}

// FromDense converts a dense graph to the sparse representation. The
// edge list is written straight off the adjacency bit-matrix rows — no
// intermediate per-edge allocation — and comes out canonical.
func FromDense(g *graph.Graph) *Graph {
	n := g.N()
	sp := &Graph{n: n, canon: true}
	sp.edges = make([]Edge, 0, n)
	var idx []int
	for u := 0; u < n; u++ {
		idx = g.Neighbors(u, idx[:0])
		for _, v := range idx {
			if v > u {
				sp.edges = append(sp.edges, Edge{int32(u), int32(v)})
			}
		}
	}
	return sp
}

// ToDense converts to the dense representation, setting adjacency bits
// directly. Graphs above DenseCutoff are refused — the n²-bit matrix is
// exactly the cost this package exists to avoid.
func (g *Graph) ToDense() (*graph.Graph, error) {
	if g.n > DenseCutoff {
		return nil, fmt.Errorf("sparse: %d vertices exceed the dense cutoff %d (n² bits would be %d MiB)",
			g.n, DenseCutoff, int64(g.n)*int64(g.n)/8/(1<<20))
	}
	d := graph.New(g.n)
	for _, e := range g.edges { // any order will do: setting a bit twice is a no-op
		d.AddEdge(int(e.U), int(e.V))
	}
	return d, nil
}

// ConnectedComponentsUnionFind labels each vertex with the smallest
// vertex index in its component using a union-find pass over the edge
// list — the sequential ground truth at sparse scale, near-linear in
// practice and O(n + m log n) in the worst case.
func ConnectedComponentsUnionFind(g *Graph) []int {
	uf := graph.NewUnionFind(g.n)
	for _, e := range g.edges { // canonical form not needed: duplicates are no-ops
		uf.Union(int(e.U), int(e.V))
	}
	return uf.Labels(nil)
}

// ConnectedComponentsBFS labels components by breadth-first search over
// the CSR view — an engine-independent second oracle used by the
// conformance harness to validate the union-find ground truth at scales
// where the dense validator cannot run.
func ConnectedComponentsBFS(g *Graph) []int {
	off, adj := g.csr()
	labels := make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := 0; s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = s // s ascending: the root is the component minimum
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[off[u]:off[u+1]] {
				if labels[v] == -1 {
					labels[v] = s
					queue = append(queue, v)
				}
			}
		}
	}
	return labels
}

// ComponentCount returns the number of distinct labels.
func ComponentCount(labels []int) int {
	c := 0
	for v, l := range labels {
		if l == v {
			c++
		}
	}
	return c
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("sparse: vertex %d out of range [0,%d)", u, g.n))
	}
}
