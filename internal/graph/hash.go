package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// The fingerprint layout, shared by both graph representations: SHA-256
// over the vertex count n and the edge count m as little-endian
// uint64s, then every edge {u, v} with u < v as two little-endian
// uint32s, in ascending (u, v) order. Two graphs have equal fingerprints
// iff they have the same vertex count and edge set (up to hash
// collisions), independent of insertion order and of the representation
// that holds them: (*Graph).Fingerprint and the sparse package's
// (*sparse.Graph).Fingerprint write the same bytes for the same graph.
//
// The fingerprint is the cache key of the serving layer
// (internal/service) and the ring key of the sharded tier
// (internal/cluster): a request's result is addressed by what graph it
// computes on, not how the request arrived.

// EdgeHash accumulates a fingerprint in that layout. The caller adds
// exactly m edges, in ascending order.
type EdgeHash struct {
	h   hash.Hash
	buf []byte
}

// NewEdgeHash starts the fingerprint of a graph with n vertices and m
// edges.
func NewEdgeHash(n, m int) *EdgeHash {
	d := &EdgeHash{h: sha256.New(), buf: make([]byte, 0, 4096)}
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(n))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(m))
	return d
}

// Add appends the edge {u, v}, u < v.
func (d *EdgeHash) Add(u, v int) {
	if len(d.buf) == cap(d.buf) {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(u))
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(v))
}

// Sum returns the fingerprint.
func (d *EdgeHash) Sum() [32]byte {
	d.h.Write(d.buf)
	var sum [32]byte
	d.h.Sum(sum[:0])
	return sum
}

// Fingerprint returns the graph's content hash in the layout above.
func (g *Graph) Fingerprint() [32]byte {
	d := NewEdgeHash(g.n, g.adj.Ones()/2)
	var row []int
	for u := 0; u < g.n; u++ {
		row = g.adj.RowIndices(u, row[:0])
		for _, v := range row {
			if v > u {
				d.Add(u, v)
			}
		}
	}
	return d.Sum()
}
