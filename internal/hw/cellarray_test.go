package hw

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gcacc/internal/core"
	"gcacc/internal/graph"
)

func TestCellArrayMatchesAbstractMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		g := graph.Gnp(n, rng.Float64()*0.7, rng)
		want, err := core.ConnectedComponents(g)
		if err != nil {
			t.Fatal(err)
		}
		ca := NewCellArray(g)
		got, err := ca.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Labels {
			if got[i] != want.Labels[i] {
				t.Fatalf("trial %d (n=%d): hardware and abstract machine disagree at %d: %d vs %d\n%s",
					trial, n, i, got[i], want.Labels[i], g)
			}
		}
	}
}

func TestCellArrayQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		g := graph.Gnp(n, rng.Float64()/2, rng)
		ca := NewCellArray(g)
		labels, err := ca.Run()
		if err != nil {
			return false
		}
		return graph.IsValidComponentLabelling(g, labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCellArrayCycleCount(t *testing.T) {
	// Fully parallel hardware: one cycle per generation, so the run takes
	// exactly the Section-3 closed form.
	for _, n := range []int{4, 16, 32} {
		g := graph.Path(n)
		ca := NewCellArray(g)
		if _, err := ca.Run(); err != nil {
			t.Fatal(err)
		}
		if ca.Cycles != core.TotalGenerations(n) {
			t.Errorf("n=%d: %d cycles, want %d", n, ca.Cycles, core.TotalGenerations(n))
		}
	}
}

func TestCellArraySlotCount(t *testing.T) {
	// The standard cells' generation multiplexer needs one input per
	// static access pattern: gens 1, 2, 4, 5, 6, 8, 9 plus 2·log n
	// reduction slots.
	n := 16
	ca := NewCellArray(graph.Path(n))
	want := 7 + 2*core.SubGenerations(n)
	if got := len(ca.wires); got != want {
		t.Fatalf("%d wiring slots, want %d", got, want)
	}
}

func TestCellArrayEmpty(t *testing.T) {
	ca := NewCellArray(graph.New(0))
	labels, err := ca.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 0 {
		t.Fatal("empty array produced labels")
	}
}

func TestCellArrayRerunnable(t *testing.T) {
	// The control FSM restarts cleanly: a second Run on the same array
	// gives the same answer (generation 0 reinitialises the field).
	g := graph.Cycle(8)
	ca := NewCellArray(g)
	first, err := ca.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := ca.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("rerun changed the answer")
		}
	}
}

func TestCellArrayAgainstNCellAndDSL(t *testing.T) {
	// Triangle check across three more implementations on one batch: the
	// RTL array, the n-cell design and the DSL program all agree.
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(14)
		g := graph.Gnp(n, rng.Float64()/2, rng)
		ca := NewCellArray(g)
		hwLabels, err := ca.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsValidComponentLabelling(g, hwLabels) {
			t.Fatalf("trial %d: hardware labels invalid", trial)
		}
	}
}

// TestCellArrayDeterministicAcrossWorkers pins labels and the cycle
// count for every shard count of the clock: the array's next state is a
// pure function of its registers.
func TestCellArrayDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 7, 24, 40} {
		g := graph.Gnp(n, 0.08, rng)
		base := NewCellArray(g)
		base.Workers = 1
		want, err := base.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			ca := NewCellArray(g)
			ca.Workers = workers
			got, err := ca.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || ca.Cycles != base.Cycles {
				t.Fatalf("n=%d workers=%d: labels %v in %d cycles, want %v in %d",
					n, workers, got, ca.Cycles, want, base.Cycles)
			}
		}
	}
}

// TestCellArrayAllocsFlatInWorkers pins that the clock fans out on the
// shared pool without allocating: a run at 8 workers allocates at most
// two more objects than a run at 1.
func TestCellArrayAllocsFlatInWorkers(t *testing.T) {
	ca := NewCellArray(graph.Gnp(48, 0.1, rand.New(rand.NewSource(3))))
	allocs := func(workers int) float64 {
		ca.Workers = workers
		return testing.AllocsPerRun(3, func() { _, _ = ca.Run() })
	}
	if one, many := allocs(1), allocs(8); many > one+2 {
		t.Fatalf("%.0f allocs per run at 8 workers, %.0f at 1; want at most +2", many, one)
	}
}
