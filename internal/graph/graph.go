// Package graph provides the graph substrate used throughout the
// reproduction: an undirected graph backed by a dense adjacency bit-matrix
// (the input representation of Hirschberg's algorithm), workload
// generators, sequential connected-component baselines, and utilities for
// comparing component labelings.
//
// The adjacency matrix A is exactly the paper's input: A(i,j) = A(j,i) = 1
// iff there is an edge between node i and node j. Self-loops are not
// represented (A(i,i) is always 0); they are irrelevant to connectivity.
package graph

import (
	"fmt"
	"strings"
)

// Graph is an undirected graph on vertices 0..n-1 with a dense adjacency
// bit-matrix. The zero value is an empty graph with no vertices.
type Graph struct {
	n   int
	adj BitMatrix
}

// New returns an empty graph with n vertices and no edges.
// It panics if n is negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{n: n, adj: NewBitMatrix(n, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	m := 0
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			if g.adj.Get(i, j) {
				m++
			}
		}
	}
	return m
}

// AddEdge inserts the undirected edge {u, v}. Inserting an existing edge is
// a no-op. It panics on out-of-range vertices or a self-loop.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	g.adj.Set(u, v, true)
	g.adj.Set(v, u, true)
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.adj.Get(u, v)
}

// Degree returns the number of neighbours of vertex u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return g.adj.RowOnes(u)
}

// Neighbors appends the neighbours of u to dst and returns the extended
// slice. Neighbours are produced in increasing order.
func (g *Graph) Neighbors(u int, dst []int) []int {
	g.check(u)
	return g.adj.RowIndices(u, dst)
}

// Edges returns all edges {u, v} with u < v, ordered lexicographically.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj.RowIndices(u, nil) {
			if u < v {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// Edge is an undirected edge; U < V for edges returned by Graph.Edges.
type Edge struct {
	U, V int
}

// Adjacency returns the underlying adjacency bit-matrix. The matrix is
// shared, not copied: mutating the graph mutates the returned matrix.
// The GCA and PRAM frontends read A(i,j) through this view.
func (g *Graph) Adjacency() *BitMatrix { return &g.adj }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{n: g.n, adj: g.adj.Clone()}
}

// Equal reports whether g and h have the same vertex count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	return g.adj.Equal(&h.adj)
}

// String renders the adjacency matrix as rows of 0/1 characters, one row
// per line — the same shape as the paper's input matrix A.
func (g *Graph) String() string {
	var b strings.Builder
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if g.adj.Get(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}
