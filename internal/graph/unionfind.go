package graph

// UnionFind is a disjoint-set forest linked by minimum, with path
// halving. It is the sequential ground truth for every connectivity
// experiment in the reproduction, the fast comparator the paper's
// optimality discussion refers to (near-linear sequential time), and the
// incremental fast path of the streaming tier, where it absorbs edge
// appends at a near-constant amortized cost per edge in practice.
//
// A union always hangs the root with the larger index under the one
// with the smaller, so every root is the smallest vertex of its set:
// Find answers in the repo-wide labelling convention — every vertex
// labelled with its component's minimum vertex, the paper's "super
// node" — and the forest is a single int32 per vertex, with no rank or
// per-root minimum to maintain. Linking by index instead of by rank
// weakens the worst-case amortized bound from inverse-Ackermann to
// O(log n) per operation; on random graphs (G(10⁵, 2·10⁵) in the stream
// tier's benchmarks) touching one array instead of three makes it the
// faster of the two.
//
// It is not safe for concurrent use.
type UnionFind struct {
	parent []int32
	sets   int
}

// NewUnionFind returns n singleton sets {0}, {1}, …, {n-1}.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n)}
	u.Reset()
	return u
}

// Reset restores the n singleton sets in place, without allocating.
func (u *UnionFind) Reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	u.sets = len(u.parent)
}

// Find returns the root of x's set — its smallest vertex — halving the
// path on the way up.
func (u *UnionFind) Find(x int) int {
	p := u.parent
	for int(p[x]) != x {
		p[x] = p[p[x]]
		x = int(p[x])
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened
// (false if they were already in the same set). The smaller root
// survives.
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if rx > ry {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	u.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Label returns the smallest vertex index in x's set — the component
// label in the paper's super-node convention.
func (u *UnionFind) Label(x int) int { return u.Find(x) }

// Labels appends every vertex's component label to dst (allocating when
// dst is nil) and returns the full labelling.
func (u *UnionFind) Labels(dst []int) []int {
	if dst == nil {
		dst = make([]int, 0, len(u.parent))
	}
	for v := range u.parent {
		dst = append(dst, u.Find(v))
	}
	return dst
}

// ConnectedComponentsUnionFind labels each vertex of g with the smallest
// vertex index in its component — the paper's "super node" convention —
// using a union-find pass over the edges. It runs in O(n²) time (matrix
// scan) plus near-linear union-find work.
func ConnectedComponentsUnionFind(g *Graph) []int {
	n := g.N()
	uf := NewUnionFind(n)
	var idx []int
	for u := 0; u < n; u++ {
		idx = g.Adjacency().RowIndices(u, idx[:0])
		for _, v := range idx {
			if v > u {
				uf.Union(u, v)
			}
		}
	}
	return uf.Labels(nil)
}
