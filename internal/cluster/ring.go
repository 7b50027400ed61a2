// Package cluster is the sharded serving tier: N gca-serve replicas
// form a static peer ring, jobs route to a shard owner by consistent
// hashing on the graph fingerprint, non-owner replicas proxy (or, at
// the HTTP layer, redirect) to the owner, and result-cache lookups
// federate — a replica asks the shard owner's cache before computing
// locally, with a bounded peer-call budget so a dead peer degrades to
// local compute instead of failing the request. Identical concurrent
// requests coalesce in the service that computes them (the owner's, or
// the local one on fallback); the cluster tier keeps no coalescer of its
// own.
//
// The design transfers the paper's partitioning discipline one level
// up: just as a p-processor GCA folds n² virtual cells onto p physical
// processors by a fixed index map, the cluster folds the fingerprint
// space onto R replicas by a fixed hash ring — ownership is a pure
// function of (members, fingerprint), so every replica computes the
// same routing table with no coordination, the way the Grappa
// connected-components programs address their global hash set by key
// rather than by location. Because every engine is deterministic and
// conformance-verified (internal/verify), any replica can answer any
// request: routing and federation change where a result is computed and
// cached, never what it is. The cluster conformance tier
// (verify.RunCluster) pins exactly that — a topology of N replicas,
// including requests sent to deliberately wrong replicas, must be
// bit-identical to one process.
package cluster

import (
	"encoding/binary"
	"sort"
)

// DefaultVNodes is the virtual-node count per member when Config leaves
// it unset: enough points that the largest shard stays within a few
// tens of percent of the mean (see TestRingBalance), cheap enough that
// building a ring is microseconds.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 2⁶⁴ ring owned by a
// member.
type ringPoint struct {
	hash   uint64
	member int
}

// Ring is a consistent-hash ring over a static member set. Placement is
// deterministic: a (members, vnodes) pair always yields the same ring,
// and removing a member only remaps the keys that member owned (plus
// nothing else) — the property TestRingRemap pins.
type Ring struct {
	vnodes int
	points []ringPoint
}

// NewRing builds the ring for the given member ids with vnodes virtual
// nodes per member (<= 0 selects DefaultVNodes). Member ids are
// arbitrary but must be distinct; order does not matter.
func NewRing(members []int, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between distinct members is astronomically
		// unlikely; break it deterministically anyway.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the member owning the fingerprint: the first virtual
// node clockwise from the key's position, wrapping at the top of the
// ring. An empty ring returns -1.
func (r *Ring) Owner(fp [32]byte) int {
	if len(r.points) == 0 {
		return -1
	}
	key := KeyHash(fp)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Members returns the distinct member ids on the ring, sorted.
func (r *Ring) Members() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range r.points {
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	sort.Ints(out)
	return out
}

// KeyHash maps a graph fingerprint onto the ring. The fingerprint is
// SHA-256 of the canonical edge list (graph.EdgeHash), so its first
// eight bytes are already uniform — no further mixing needed.
func KeyHash(fp [32]byte) uint64 {
	return binary.LittleEndian.Uint64(fp[:8])
}

// pointHash places virtual node v of a member on the ring: two rounds
// of the SplitMix64 finalizer over a member/vnode packing, so points
// are well spread and depend only on (member, v) — the root of
// consistency under member removal.
func pointHash(member, v int) uint64 {
	return splitmix64(splitmix64(uint64(int64(member))+0x9e3779b97f4a7c15) ^ uint64(int64(v)))
}

// splitmix64 is the SplitMix64 finalizer (same mix internal/fault uses
// for its decision streams).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
