package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// orderInputs returns g's canonical edge list, a seeded shuffle of it,
// and a seeded shuffle with every edge present twice.
func orderInputs(g *Graph, seed int64) map[string][]Edge {
	canon := slices.Clone(g.Edges())
	rng := rand.New(rand.NewSource(seed))
	shuffled := slices.Clone(canon)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	doubled := append(slices.Clone(canon), canon...)
	rng.Shuffle(len(doubled), func(i, j int) { doubled[i], doubled[j] = doubled[j], doubled[i] })
	return map[string][]Edge{"canonical": canon, "shuffled": shuffled, "doubled": doubled}
}

// TestEnginesIgnoreEdgeOrderAndMultiplicity pins the invariant the
// stream tier's unsorted recompute input and the content-addressed cache
// both rest on: every proposal combines through a commutative minimum,
// so labels and round counts depend only on the edge set — not on the
// list's order, not on duplicates, and not on the worker count.
func TestEnginesIgnoreEdgeOrderAndMultiplicity(t *testing.T) {
	type engine struct {
		name string
		run  func(*Graph, int) (Result, error)
	}
	engines := []engine{{"logdiameter", func(g *Graph, w int) (Result, error) {
		return LogDiameter(g, Options{Workers: w})
	}}}
	for _, v := range Variants() {
		engines = append(engines, engine{"liutarjan/" + v.String(), func(g *Graph, w int) (Result, error) {
			return LiuTarjan(g, Options{Workers: w, Variant: v})
		}})
	}
	for fam, g := range engineCorpus(t) {
		inputs := orderInputs(g, int64(len(fam)))
		for _, e := range engines {
			want, err := e.run(g, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, e.name, err)
			}
			for in, edges := range inputs {
				for _, workers := range []int{1, 2, 3, 8} {
					got, err := e.run(Borrow(g.N(), edges), workers)
					name := fmt.Sprintf("%s/%s/%s/workers=%d", fam, e.name, in, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkLabels(t, name, got.Labels, want.Labels)
					if got.Rounds != want.Rounds {
						t.Fatalf("%s: %d rounds, want %d", name, got.Rounds, want.Rounds)
					}
				}
			}
		}
	}
}

// TestBorrowNeverReordersCallerList: everything that needs the canonical
// form sorts a private copy, so the lender's list stays byte-identical —
// the stream tier indexes into it by position.
func TestBorrowNeverReordersCallerList(t *testing.T) {
	lent := []Edge{{3, 4}, {0, 2}, {1, 5}, {0, 1}, {2, 3}}
	orig := slices.Clone(lent)
	owned := New(6)
	for _, e := range lent {
		owned.AddEdge(int(e.U), int(e.V))
	}
	uses := map[string]func(g *Graph){
		"Edges": func(g *Graph) {
			if !slices.Equal(g.Edges(), owned.Edges()) {
				t.Errorf("Edges = %v, want %v", g.Edges(), owned.Edges())
			}
		},
		"M": func(g *Graph) {
			if g.M() != len(lent) {
				t.Errorf("M = %d, want %d", g.M(), len(lent))
			}
		},
		"Fingerprint": func(g *Graph) {
			if g.Fingerprint() != owned.Fingerprint() {
				t.Error("Fingerprint differs from the owned graph's")
			}
		},
		"Equal": func(g *Graph) {
			if !g.Equal(owned) || !owned.Equal(g) {
				t.Error("Equal disagrees with the owned graph")
			}
		},
		"ToDense": func(g *Graph) {
			d, err := g.ToDense()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := owned.ToDense()
			if d.Fingerprint() != want.Fingerprint() {
				t.Error("ToDense differs from the owned graph's")
			}
		},
		"Neighbors": func(g *Graph) {
			if got := g.Neighbors(0, nil); !slices.Equal(got, []int{1, 2}) {
				t.Errorf("Neighbors(0) = %v, want [1 2]", got)
			}
		},
		"engines": func(g *Graph) {
			for _, v := range Variants() {
				if _, err := LiuTarjan(g, Options{Variant: v}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := LogDiameter(g, Options{}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, use := range uses {
		use(Borrow(6, lent))
		if !slices.Equal(lent, orig) {
			t.Fatalf("%s reordered the lent list: %v, was %v", name, lent, orig)
		}
	}
}

// TestBorrowAddEdgeLeavesSpareCapacity: AddEdge on a borrowed graph must
// not write into the lender's spare capacity, which its next append owns.
func TestBorrowAddEdgeLeavesSpareCapacity(t *testing.T) {
	backing := make([]Edge, 2, 8)
	backing[0], backing[1] = Edge{0, 1}, Edge{1, 2}
	g := Borrow(4, backing)
	g.AddEdge(2, 3)
	if spare := backing[:3][2]; spare != (Edge{}) {
		t.Fatalf("AddEdge wrote %v into the lender's spare capacity", spare)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
}
