package gcasm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gcacc/internal/gca"
)

// sequentialRanks is the ground truth: chase each list to its tail.
func sequentialRanks(next []int) []int {
	ranks := make([]int, len(next))
	for i := range next {
		d, v := 0, i
		for next[v] != v {
			d++
			v = next[v]
		}
		ranks[i] = d
	}
	return ranks
}

// randomListForest builds a forest of disjoint linked lists over n
// elements.
func randomListForest(n int, rng *rand.Rand) []int {
	perm := rng.Perm(n)
	next := make([]int, n)
	i := 0
	for i < n {
		// A list of random length starting at perm[i].
		length := 1 + rng.Intn(n-i)
		for j := 0; j < length-1; j++ {
			next[perm[i+j]] = perm[i+j+1]
		}
		next[perm[i+length-1]] = perm[i+length-1] // tail
		i += length
	}
	return next
}

func TestListRankSingleList(t *testing.T) {
	// 0 → 1 → 2 → 3 → 4 (tail).
	next := []int{1, 2, 3, 4, 4}
	ranks, err := RankList(next, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestListRankForest(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		next := randomListForest(n, rng)
		got, err := RankList(next, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := sequentialRanks(next)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ranks[%d] = %d, want %d (next=%v)", trial, i, got[i], want[i], next)
			}
		}
	}
}

func TestListRankQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		next := randomListForest(n, rng)
		got, err := RankList(next, 0)
		if err != nil {
			return false
		}
		want := sequentialRanks(next)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestListRankValidation(t *testing.T) {
	if _, err := RankList([]int{0, 5}, 1); err == nil {
		t.Error("out-of-range next accepted")
	}
	ranks, err := RankList(nil, 1)
	if err != nil || len(ranks) != 0 {
		t.Errorf("empty list: %v %v", ranks, err)
	}
	// Singleton tail.
	ranks, err = RankList([]int{0}, 1)
	if err != nil || ranks[0] != 0 {
		t.Errorf("singleton: %v %v", ranks, err)
	}
}

func TestListRankGenerationCount(t *testing.T) {
	// ⌈log₂ n⌉ sub-generations, one schedule pass.
	next := randomListForest(33, rand.New(rand.NewSource(803)))
	const lane = 1 << 21
	field := gca.NewField(len(next))
	for i, nx := range next {
		rank := 1
		if nx == i {
			rank = 0
		}
		field.SetData(i, gca.Value(nx+rank*lane))
	}
	res, err := ListRankProgram().Run(RunConfig{N: len(next), Field: field})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 6 { // ⌈log₂ 33⌉
		t.Fatalf("generations = %d, want 6", res.Generations)
	}
}

// RankList computes, for every element of a linked-list forest, its
// distance to the end of its list. next[i] is the successor of i; tails
// have next[i] == i. Lists must be acyclic apart from the tail self-loop.
func RankList(next []int, workers int) ([]int, error) {
	n := len(next)
	if n == 0 {
		return []int{}, nil
	}
	const lane = 1 << 21
	if n >= lane {
		return nil, fmt.Errorf("gcasm: list of %d elements exceeds the 21-bit lane", n)
	}
	field := gca.NewField(n)
	for i, nx := range next {
		if nx < 0 || nx >= n {
			return nil, fmt.Errorf("gcasm: next[%d] = %d out of range", i, nx)
		}
		rank := 1
		if nx == i {
			rank = 0
		}
		field.SetData(i, gca.Value(nx+rank*lane))
	}
	if _, err := ListRankProgram().Run(RunConfig{N: n, Field: field, Workers: workers}); err != nil {
		return nil, err
	}
	ranks := make([]int, n)
	for i := 0; i < n; i++ {
		ranks[i] = int(field.Data(i) / lane)
	}
	return ranks, nil
}

// ListRankProgram parses the embedded source.
func ListRankProgram() *Program {
	p, err := Parse(ListRankSource)
	if err != nil {
		panic(fmt.Sprintf("gcasm: embedded list-ranking program does not parse: %v", err))
	}
	return p
}
