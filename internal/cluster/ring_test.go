package cluster

import (
	"testing"

	"gcacc/internal/graph"
)

// syntheticFP derives the i-th deterministic fingerprint of the test
// key stream: SplitMix64 expansion, so the stream is fixed across runs
// and platforms.
func syntheticFP(i int) [32]byte {
	var fp [32]byte
	x := splitmix64(uint64(i) * 0x9e3779b97f4a7c15)
	for b := 0; b < 4; b++ {
		v := splitmix64(x + uint64(b))
		for j := 0; j < 8; j++ {
			fp[b*8+j] = byte(v >> (8 * j))
		}
	}
	return fp
}

// TestRingGoldenPlacement pins the placement of corpus-style graphs on
// the canonical 4-member ring. These values are part of the wire
// contract: a replica that computes them differently would route
// traffic to the wrong shard, so any change here is a breaking change
// to cluster deployments.
func TestRingGoldenPlacement(t *testing.T) {
	ring := NewRing([]int{0, 1, 2, 3}, DefaultVNodes)
	cases := []struct {
		name  string
		g     *graph.Graph
		owner int
	}{
		{"path-8", graph.Path(8), 1},
		{"path-100", graph.Path(100), 0},
		{"cycle-12", graph.Cycle(12), 2},
		{"star-16", graph.Star(16), 2},
		{"complete-9", graph.Complete(9), 0},
		{"grid-6x7", graph.Grid(6, 7), 3},
		{"bipartite-5x8", graph.CompleteBipartite(5, 8), 1},
		{"hypercube-5", graph.Hypercube(5), 2},
		{"cliques-4x6", graph.DisjointCliques(4, 6), 2},
		{"tree-31", graph.BinaryTree(31), 1},
		{"chain-20", graph.MatchingChain(20), 0},
		{"empty-10", graph.Empty(10), 1},
	}
	for _, tc := range cases {
		if got := ring.Owner(tc.g.Fingerprint()); got != tc.owner {
			t.Errorf("%s: owner = %d, want pinned %d", tc.name, got, tc.owner)
		}
	}
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := NewRing([]int{0, 1, 2, 3}, 32)
	b := NewRing([]int{3, 1, 0, 2}, 32)
	for i := 0; i < 1000; i++ {
		fp := syntheticFP(i)
		if a.Owner(fp) != b.Owner(fp) {
			t.Fatalf("key %d: placement depends on member order", i)
		}
	}
	if got := a.Members(); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("Members() = %v", got)
	}
}

func TestRingEmptyAndDefaults(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owner(syntheticFP(0)); got != -1 {
		t.Fatalf("empty ring owner = %d, want -1", got)
	}
	r := NewRing([]int{5}, 0)
	if len(r.points) != DefaultVNodes {
		t.Fatalf("default vnodes = %d points, want %d", len(r.points), DefaultVNodes)
	}
	for i := 0; i < 100; i++ {
		if got := r.Owner(syntheticFP(i)); got != 5 {
			t.Fatalf("singleton ring owner = %d, want 5", got)
		}
	}
}

// TestRingRemapOnRemoval pins consistent hashing's defining property:
// removing one of R members remaps exactly the keys that member owned —
// every other key keeps its owner — and that fraction stays ≤ 2/R
// (≈ 1/R expected, 2× headroom for hash variance).
func TestRingRemapOnRemoval(t *testing.T) {
	const keys = 10000
	full := NewRing([]int{0, 1, 2, 3}, DefaultVNodes)
	reduced := NewRing([]int{0, 1, 2}, DefaultVNodes)
	moved := 0
	for i := 0; i < keys; i++ {
		fp := syntheticFP(i)
		before, after := full.Owner(fp), reduced.Owner(fp)
		if before != after {
			if before != 3 {
				t.Fatalf("key %d moved %d→%d although member 3 was removed", i, before, after)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed member")
	}
	if frac, bound := float64(moved)/keys, 2.0/4; frac > bound {
		t.Fatalf("remapped fraction %.4f exceeds 2/R = %.2f", frac, bound)
	}
}

// TestRingBalance pins the virtual-node load bound on 10⁴ deterministic
// fingerprints over 4 members: every shard within [0.7, 1.3]× the mean
// at the default 64 vnodes (measured: 0.92–1.06×).
func TestRingBalance(t *testing.T) {
	const keys = 10000
	members := []int{0, 1, 2, 3}
	ring := NewRing(members, DefaultVNodes)
	counts := make(map[int]int, len(members))
	for i := 0; i < keys; i++ {
		counts[ring.Owner(syntheticFP(i))]++
	}
	mean := float64(keys) / float64(len(members))
	for _, m := range members {
		share := float64(counts[m]) / mean
		if share < 0.7 || share > 1.3 {
			t.Errorf("member %d holds %.2f× the mean load (%d keys)", m, share, counts[m])
		}
	}
}

func TestKeyHashLittleEndianPrefix(t *testing.T) {
	var fp [32]byte
	fp[0] = 0x01
	fp[7] = 0x80
	if got, want := KeyHash(fp), uint64(0x8000000000000001); got != want {
		t.Fatalf("KeyHash = %#x, want %#x", got, want)
	}
}
