package pram

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gcacc/internal/graph"
)

func TestStepCommitsSynchronously(t *testing.T) {
	// Rotation: processor i writes mem[i] ← mem[(i+1) mod n]. Buffered
	// writes must make this a clean rotation, not a cascade.
	n := 6
	m := New(CREW, n)
	for i := 0; i < n; i++ {
		m.Store(i, Value(i))
	}
	if err := m.Step(n, func(p *Proc) {
		p.Write(p.ID, p.Read((p.ID+1)%n))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, want := m.Load(i), Value((i+1)%n); got != want {
			t.Fatalf("mem[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestWriteConflictDetected(t *testing.T) {
	m := New(CREW, 4)
	err := m.Step(2, func(p *Proc) {
		p.Write(0, Value(p.ID))
	})
	if err == nil || !strings.Contains(err.Error(), "write conflict") {
		t.Fatalf("expected write conflict, got %v", err)
	}
	// The conflicting step must not commit.
	if m.Load(0) != 0 {
		t.Fatal("conflicting write was committed")
	}
}

func TestEREWReadConflict(t *testing.T) {
	m := New(EREW, 4)
	err := m.Step(2, func(p *Proc) {
		p.Read(3)
	})
	if err == nil || !strings.Contains(err.Error(), "EREW violation") {
		t.Fatalf("expected EREW violation, got %v", err)
	}
	// Disjoint reads are fine.
	if err := m.Step(2, func(p *Proc) {
		p.Read(p.ID)
	}); err != nil {
		t.Fatalf("disjoint EREW reads rejected: %v", err)
	}
}

func TestCREWAllowsConcurrentReads(t *testing.T) {
	m := New(CREW, 4)
	if err := m.Step(4, func(p *Proc) {
		p.Read(0)
		p.Write(p.ID, 1)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCROWOwnership(t *testing.T) {
	m := New(CROW, 4)
	m.SetOwner(1, 1)
	// Owner writes: fine.
	if err := m.Step(2, func(p *Proc) {
		if p.ID == 1 {
			p.Write(1, 42)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Load(1) != 42 {
		t.Fatal("owner write not committed")
	}
	// Non-owner write: violation.
	err := m.Step(2, func(p *Proc) {
		if p.ID == 0 {
			p.Write(1, 7)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "CROW violation") {
		t.Fatalf("expected CROW violation, got %v", err)
	}
	// Unowned (read-only) write: violation.
	err = m.Step(1, func(p *Proc) {
		p.Write(3, 7)
	})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("expected read-only violation, got %v", err)
	}
}

func TestSetOwnerPanicsOutsideCROW(t *testing.T) {
	m := New(CREW, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetOwner on CREW machine did not panic")
		}
	}()
	m.SetOwner(0, 0)
}

func TestOutOfRangeAccess(t *testing.T) {
	m := New(CREW, 2)
	if err := m.Step(1, func(p *Proc) { p.Read(5) }); err == nil {
		t.Fatal("out-of-range read not reported")
	}
	if err := m.Step(1, func(p *Proc) { p.Write(-1, 0) }); err == nil {
		t.Fatal("out-of-range write not reported")
	}
}

func TestCostsAccounting(t *testing.T) {
	m := New(CREW, 8)
	for s := 0; s < 3; s++ {
		if err := m.Step(4, func(p *Proc) {
			p.Read(0)
			p.Write(p.ID+1, 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Costs()
	if c.Steps != 3 {
		t.Errorf("Steps = %d, want 3", c.Steps)
	}
	if c.Work != 12 {
		t.Errorf("Work = %d, want 12", c.Work)
	}
	if c.Reads != 12 || c.Writes != 12 {
		t.Errorf("Reads/Writes = %d/%d, want 12/12", c.Reads, c.Writes)
	}
	if c.MaxReadCongestion != 4 {
		t.Errorf("MaxReadCongestion = %d, want 4", c.MaxReadCongestion)
	}
	if c.Time != 3 {
		t.Errorf("Time = %d, want 3 (unlimited processors)", c.Time)
	}
}

func TestBrentTimeAccounting(t *testing.T) {
	// 10 active processors on a 3-processor machine: each step costs
	// ⌈10/3⌉ = 4 time units.
	m := New(CREW, 16, WithPhysicalProcessors(3))
	for s := 0; s < 2; s++ {
		if err := m.Step(10, func(p *Proc) {
			p.Write(p.ID, 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Costs()
	if c.Time != 8 {
		t.Errorf("Time = %d, want 8", c.Time)
	}
	if c.Steps != 2 {
		t.Errorf("Steps = %d, want 2", c.Steps)
	}
}

func TestParallelSimulatorDeterminism(t *testing.T) {
	run := func(workers int) []Value {
		m := New(CREW, 4096, WithSimWorkers(workers))
		for s := 0; s < 5; s++ {
			if err := m.Step(4096, func(p *Proc) {
				v := p.Read((p.ID*31 + 7) % 4096)
				p.Write(p.ID, v*3+Value(p.ID))
			}); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]Value, 4096)
		for i := range out {
			out[i] = m.Load(i)
		}
		return out
	}
	want := run(1)
	got := run(8)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("worker counts disagree at %d: %d vs %d", i, want[i], got[i])
		}
	}
}

func TestZeroProcessorStep(t *testing.T) {
	m := New(CREW, 1)
	if err := m.Step(0, func(p *Proc) { t.Fatal("body called") }); err != nil {
		t.Fatal(err)
	}
	if m.Costs().Steps != 1 {
		t.Fatal("empty step not counted")
	}
}

func TestNegativeProcessorStep(t *testing.T) {
	m := New(CREW, 1)
	if err := m.Step(-1, func(p *Proc) {}); err == nil {
		t.Fatal("negative processor count accepted")
	}
}

func TestModeString(t *testing.T) {
	if CREW.String() != "CREW" || EREW.String() != "EREW" || CROW.String() != "CROW" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestModeAccessors(t *testing.T) {
	m := New(CROW, 8)
	if m.mode != CROW {
		t.Fatalf("mode = %v", m.mode)
	}
	if len(m.mem) != 8 {
		t.Fatalf("memory size = %d", len(m.mem))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative memory size accepted")
		}
	}()
	New(CREW, -1)
}

func TestHostAccessPanicsOutOfRange(t *testing.T) {
	m := New(CREW, 2)
	for name, f := range map[string]func(){
		"load":  func() { m.Load(5) },
		"store": func() { m.Store(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestDeterministicAcrossWorkers pins labels and the full cost account
// of Hirschberg's algorithm for every shard count of the step, in every
// mode that admits it.
func TestDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{5, 23, 40} {
		g := graph.Gnp(n, 0.08, rng)
		for _, mode := range []Mode{CROW, CREW, CRCWCommon, CRCWPriority} {
			want, err := Hirschberg(g, Options{SimWorkers: 1, Mode: mode, UseMode: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := Hirschberg(g, Options{SimWorkers: workers, Mode: mode, UseMode: true})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Labels, want.Labels) || got.Costs != want.Costs {
					t.Fatalf("n=%d %s workers=%d: labels %v costs %+v, want %v %+v",
						n, mode, workers, got.Labels, got.Costs, want.Labels, want.Costs)
				}
			}
		}
	}
}

// TestAllocsFlatInWorkers pins that a step fans out on the shared pool
// and logs into the machine's shared block logs without per-worker
// allocations: a run at 8 workers allocates at most two more objects
// than a run at 1.
func TestAllocsFlatInWorkers(t *testing.T) {
	g := graph.Gnp(48, 0.1, rand.New(rand.NewSource(3)))
	runs := map[string]func(workers int){
		"machine": func(w int) {
			m := New(CREW, 4096, WithSimWorkers(w))
			for s := 0; s < 5; s++ {
				_ = m.Step(4096, func(p *Proc) {
					v := p.Read((p.ID*31 + 7) % 4096)
					p.Write(p.ID, v*3+Value(p.ID))
				})
			}
		},
		"hirschberg": func(w int) { _, _ = Hirschberg(g, Options{SimWorkers: w}) },
	}
	for name, run := range runs {
		one := testing.AllocsPerRun(3, func() { run(1) })
		many := testing.AllocsPerRun(3, func() { run(8) })
		if many > one+2 {
			t.Errorf("%s: %.0f allocs per run at 8 workers, %.0f at 1; want at most +2", name, many, one)
		}
	}
}
