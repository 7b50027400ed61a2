package gca

import (
	"math/rand"
	"testing"
)

// incrementRule adds 1 to every cell's data, no global reads.
var incrementRule = RuleFuncs{
	UpdateFunc: func(_ Context, _ int, self, _ Cell) Value { return self.D + 1 },
}

// jumpRule implements pointer jumping: every cell's data field is an index
// into the field, and each generation replaces it with the data of the
// cell it designates (d ← d*). This is the textbook GCA "shortcut" and the
// mechanism of the paper's generation 10.
var jumpRule = RuleFuncs{
	PointerFunc: func(_ Context, _ int, self Cell) int { return int(self.D) },
	UpdateFunc:  func(_ Context, _ int, _, global Cell) Value { return global.D },
}

func newFieldWithData(data []Value) *Field {
	f := NewField(len(data))
	for i, d := range data {
		f.SetData(i, d)
	}
	return f
}

func TestStepIncrement(t *testing.T) {
	f := newFieldWithData([]Value{0, 10, 20})
	m := NewMachine(f, incrementRule, WithWorkers(1))
	s, err := m.Step(Context{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []Value{1, 11, 21} {
		if got := f.Data(i); got != want {
			t.Errorf("cell %d = %d, want %d", i, got, want)
		}
	}
	if s.Active != 3 {
		t.Errorf("Active = %d, want 3", s.Active)
	}
	if s.TotalReads != 0 {
		t.Errorf("TotalReads = %d, want 0", s.TotalReads)
	}
	if m.Tick() != 1 {
		t.Errorf("Tick = %d, want 1", m.Tick())
	}
}

func TestStepReadsPreviousGeneration(t *testing.T) {
	// Shift-left rule: cell i reads cell i+1 (cyclically). If reads saw
	// the next generation this would collapse; synchronous semantics keep
	// it a clean rotation.
	n := 5
	shift := RuleFuncs{
		PointerFunc: func(_ Context, idx int, _ Cell) int { return (idx + 1) % n },
		UpdateFunc:  func(_ Context, _ int, _, global Cell) Value { return global.D },
	}
	f := newFieldWithData([]Value{0, 1, 2, 3, 4})
	m := NewMachine(f, shift, WithWorkers(1))
	if _, err := m.Step(Context{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if want := Value((i + 1) % n); f.Data(i) != want {
			t.Fatalf("after shift, cell %d = %d, want %d", i, f.Data(i), want)
		}
	}
}

func TestPointerJumpingConverges(t *testing.T) {
	// A linked list 0←1←2←…←9 (cell i points to i-1, cell 0 to itself).
	n := 10
	data := make([]Value, n)
	for i := 1; i < n; i++ {
		data[i] = Value(i - 1)
	}
	f := newFieldWithData(data)
	m := NewMachine(f, jumpRule, WithWorkers(2))
	steps := 0
	for {
		s, err := m.Step(Context{})
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if s.Active == 0 {
			break
		}
		if steps > n {
			t.Fatal("pointer jumping did not converge")
		}
	}
	for i := 0; i < n; i++ {
		if f.Data(i) != 0 {
			t.Fatalf("cell %d = %d, want 0", i, f.Data(i))
		}
	}
	// Doubling: convergence in ⌈log2(n-1)⌉ + 1 steps plus the final
	// all-quiet step. For a 9-link chain that is 5 productive steps.
	if steps > 6 {
		t.Fatalf("pointer jumping took %d steps, want ≤ 6", steps)
	}
}

func TestNoReadPassesSelf(t *testing.T) {
	r := RuleFuncs{
		PointerFunc: func(_ Context, _ int, _ Cell) int { return NoRead },
		UpdateFunc: func(_ Context, _ int, self, global Cell) Value {
			if self != global {
				return -1
			}
			return self.D
		},
	}
	f := newFieldWithData([]Value{7, 8})
	m := NewMachine(f, r, WithWorkers(1))
	s, err := m.Step(Context{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Data(0) == -1 || f.Data(1) == -1 {
		t.Fatal("NoRead did not pass self as global operand")
	}
	if s.TotalReads != 0 {
		t.Fatalf("NoRead counted as read: %d", s.TotalReads)
	}
	if s.Active != 0 {
		t.Fatalf("Active = %d, want 0", s.Active)
	}
}

func TestAuxFieldImmutable(t *testing.T) {
	f := NewField(2)
	f.SetCell(0, Cell{D: 1, A: 42})
	f.SetCell(1, Cell{D: 2, A: 43})
	m := NewMachine(f, incrementRule, WithWorkers(1))
	for i := 0; i < 3; i++ {
		if _, err := m.Step(Context{}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Cell(0).A != 42 || f.Cell(1).A != 43 {
		t.Fatal("aux field mutated by stepping")
	}
}

func TestOutOfRangePointer(t *testing.T) {
	bad := RuleFuncs{
		PointerFunc: func(_ Context, idx int, _ Cell) int {
			if idx == 3 {
				return 100
			}
			return NoRead
		},
	}
	f := NewField(5)
	m := NewMachine(f, bad, WithWorkers(1))
	if _, err := m.Step(Context{}); err == nil {
		t.Fatal("out-of-range pointer not reported")
	}
}

func TestCongestionCounting(t *testing.T) {
	// All n cells read cell 0.
	n := 8
	r := RuleFuncs{
		PointerFunc: func(_ Context, _ int, _ Cell) int { return 0 },
		UpdateFunc:  func(_ Context, _ int, self, _ Cell) Value { return self.D },
	}
	f := NewField(n)
	m := NewMachine(f, r, WithWorkers(3), WithCongestion())
	s, err := m.Step(Context{})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxCongestion != n {
		t.Fatalf("MaxCongestion = %d, want %d", s.MaxCongestion, n)
	}
	if s.TotalReads != n {
		t.Fatalf("TotalReads = %d, want %d", s.TotalReads, n)
	}
	h := s.CongestionHistogram()
	if len(h) != 1 || h[n] != 1 {
		t.Fatalf("histogram = %v, want {%d:1}", h, n)
	}
	levels := s.CongestionLevels()
	if len(levels) != 1 || levels[0].Delta != n || levels[0].Cells != 1 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestCongestionHistogramMultipleLevels(t *testing.T) {
	// Cells 0..3 read cell 0; cells 4..5 read cell 1; cell 6 reads cell 2;
	// cell 7 reads nothing.
	targets := []int{0, 0, 0, 0, 1, 1, 2, NoRead}
	r := RuleFuncs{
		PointerFunc: func(_ Context, idx int, _ Cell) int { return targets[idx] },
	}
	f := NewField(8)
	m := NewMachine(f, r, WithWorkers(4), WithCongestion())
	s, err := m.Step(Context{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.CongestionHistogram()
	if h[4] != 1 || h[2] != 1 || h[1] != 1 || len(h) != 3 {
		t.Fatalf("histogram = %v, want {4:1 2:1 1:1}", h)
	}
	levels := s.CongestionLevels()
	if len(levels) != 3 || levels[0].Delta != 4 || levels[2].Delta != 1 {
		t.Fatalf("levels not sorted descending: %v", levels)
	}
}

func TestPointerCapture(t *testing.T) {
	f := newFieldWithData([]Value{1, 0})
	m := NewMachine(f, jumpRule, WithWorkers(1), WithPointerCapture())
	s, err := m.Step(Context{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pointers[0] != 1 || s.Pointers[1] != 0 {
		t.Fatalf("Pointers = %v", s.Pointers)
	}
	// Cell 0 reads cell 1 (d*=0) so it changes 1→0; cell 1 reads cell 0
	// (d*=1) so it changes 0→1.
	if !s.Changed[0] || !s.Changed[1] {
		t.Fatalf("Changed = %v", s.Changed)
	}
}

func TestObserverCalledEveryStep(t *testing.T) {
	f := NewField(4)
	calls := 0
	obs := ObserverFunc(func(_ *Field, s *StepStats) {
		calls++
		if s.Ctx.Generation != 7 {
			t.Errorf("observer saw generation %d, want 7", s.Ctx.Generation)
		}
	})
	m := NewMachine(f, incrementRule, WithWorkers(1), WithObserver(obs))
	for i := 0; i < 5; i++ {
		if _, err := m.Step(Context{Generation: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 5 {
		t.Fatalf("observer called %d times, want 5", calls)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// A mildly complex rule: cell i reads cell (i*i+3) mod n and mixes.
	n := 1000
	mix := RuleFuncs{
		PointerFunc: func(_ Context, idx int, _ Cell) int { return (idx*idx + 3) % n },
		UpdateFunc: func(_ Context, idx int, self, global Cell) Value {
			return (self.D*31 + global.D + Value(idx)) % 1000003
		},
	}
	run := func(workers int) []Value {
		rng := rand.New(rand.NewSource(5))
		data := make([]Value, n)
		for i := range data {
			data[i] = Value(rng.Intn(1000))
		}
		f := newFieldWithData(data)
		m := NewMachine(f, mix, WithWorkers(workers), WithCongestion())
		for s := 0; s < 20; s++ {
			if _, err := m.Step(Context{Generation: s}); err != nil {
				t.Fatal(err)
			}
		}
		return f.Snapshot(nil)
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8, 16} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestCongestionMatchesAcrossWorkerCounts(t *testing.T) {
	n := 2000
	r := RuleFuncs{
		PointerFunc: func(_ Context, idx int, _ Cell) int { return idx % 17 },
	}
	counts := func(workers int) map[int]int {
		f := NewField(n)
		m := NewMachine(f, r, WithWorkers(workers), WithCongestion())
		s, err := m.Step(Context{})
		if err != nil {
			t.Fatal(err)
		}
		return s.CongestionHistogram()
	}
	want := counts(1)
	got := counts(8)
	if len(want) != len(got) {
		t.Fatalf("histograms differ: %v vs %v", want, got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("histograms differ at δ=%d: %d vs %d", k, v, got[k])
		}
	}
}

func TestSnapshotAppend(t *testing.T) {
	f := newFieldWithData([]Value{4, 5})
	s := f.Snapshot(nil)
	if len(s) != 2 || s[0] != 4 || s[1] != 5 {
		t.Fatalf("Snapshot = %v", s)
	}
	s2 := f.Snapshot(s)
	if len(s2) != 4 {
		t.Fatalf("Snapshot append len = %d", len(s2))
	}
}

func TestNewMachineValidation(t *testing.T) {
	f := NewField(1)
	for name, fn := range map[string]func(){
		"nilField": func() { NewMachine(nil, incrementRule) },
		"nilRule":  func() { NewMachine(f, nil) },
		"negField": func() { NewField(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEmptyField(t *testing.T) {
	f := NewField(0)
	m := NewMachine(f, incrementRule)
	s, err := m.Step(Context{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Active != 0 {
		t.Fatal("empty field has active cells")
	}
}

func TestMinValue(t *testing.T) {
	if MinValue(3, 5) != 3 || MinValue(5, 3) != 3 {
		t.Fatal("MinValue wrong")
	}
	if MinValue(Inf, 7) != 7 || MinValue(7, Inf) != 7 {
		t.Fatal("MinValue does not treat Inf as identity")
	}
	if MinValue(Inf, Inf) != Inf {
		t.Fatal("MinValue(Inf, Inf) != Inf")
	}
}

func TestRuleFuncsDefaults(t *testing.T) {
	var r RuleFuncs
	if r.Pointer(Context{}, 0, Cell{}) != NoRead {
		t.Fatal("default Pointer should be NoRead")
	}
	if r.Update(Context{}, 0, Cell{D: 9}, Cell{}) != 9 {
		t.Fatal("default Update should keep d")
	}
}

// twoHandedSum is a Rule2 that adds both global operands.
type twoHandedSum struct{ n int }

func (r twoHandedSum) Pointer(_ Context, idx int, _ Cell) int  { return (idx + 1) % r.n }
func (r twoHandedSum) Pointer2(_ Context, idx int, _ Cell) int { return (idx + 2) % r.n }
func (r twoHandedSum) Update(_ Context, _ int, self, _ Cell) Value {
	return self.D // unused for two-handed rules
}
func (r twoHandedSum) Update2(_ Context, _ int, _, g1, g2 Cell) Value {
	return g1.D + g2.D
}

func TestTwoHandedRule(t *testing.T) {
	n := 5
	f := newFieldWithData([]Value{1, 2, 3, 4, 5})
	m := NewMachine(f, twoHandedSum{n: n}, WithWorkers(2), WithCongestion())
	s, err := m.Step(Context{})
	if err != nil {
		t.Fatal(err)
	}
	// Cell i becomes d[(i+1)%n] + d[(i+2)%n].
	want := []Value{2 + 3, 3 + 4, 4 + 5, 5 + 1, 1 + 2}
	for i := range want {
		if f.Data(i) != want[i] {
			t.Fatalf("cell %d = %d, want %d", i, f.Data(i), want[i])
		}
	}
	// Every cell is read twice (once per hand of two distinct readers).
	if s.TotalReads != 2*n {
		t.Fatalf("TotalReads = %d, want %d", s.TotalReads, 2*n)
	}
	h := s.CongestionHistogram()
	if h[2] != n {
		t.Fatalf("histogram = %v, want all cells at δ=2", h)
	}
}

type twoHandedBad struct{ n int }

func (r twoHandedBad) Pointer(_ Context, _ int, _ Cell) int  { return 0 }
func (r twoHandedBad) Pointer2(_ Context, _ int, _ Cell) int { return 99 }
func (r twoHandedBad) Update(_ Context, _ int, self, _ Cell) Value {
	return self.D
}
func (r twoHandedBad) Update2(_ Context, _ int, _, g1, _ Cell) Value { return g1.D }

func TestTwoHandedOutOfRange(t *testing.T) {
	f := NewField(3)
	m := NewMachine(f, twoHandedBad{n: 3}, WithWorkers(1))
	if _, err := m.Step(Context{}); err == nil {
		t.Fatal("out-of-range second pointer not reported")
	}
}

func TestTwoHandedNoReadSecondHand(t *testing.T) {
	r := RuleFuncs2{
		P1: func(_ Context, idx int, _ Cell) int { return NoRead },
		P2: func(_ Context, _ int, _ Cell) int { return NoRead },
		U2: func(_ Context, _ int, self, g1, g2 Cell) Value {
			if g1 != self || g2 != self {
				return -1
			}
			return self.D
		},
	}
	f := newFieldWithData([]Value{7})
	m := NewMachine(f, r, WithWorkers(1))
	if _, err := m.Step(Context{}); err != nil {
		t.Fatal(err)
	}
	if f.Data(0) != 7 {
		t.Fatal("NoRead hands did not pass self")
	}
}

// RuleFuncs2 adapts functions to the Rule2 interface, for tests. Nil P1/P2 mean NoRead; a nil U2 keeps d.
type RuleFuncs2 struct {
	P1 func(ctx Context, idx int, self Cell) int
	P2 func(ctx Context, idx int, self Cell) int
	U2 func(ctx Context, idx int, self, global1, global2 Cell) Value
}

// Pointer implements Rule.
func (r RuleFuncs2) Pointer(ctx Context, idx int, self Cell) int {
	if r.P1 == nil {
		return NoRead
	}
	return r.P1(ctx, idx, self)
}

// Pointer2 implements Rule2.
func (r RuleFuncs2) Pointer2(ctx Context, idx int, self Cell) int {
	if r.P2 == nil {
		return NoRead
	}
	return r.P2(ctx, idx, self)
}

// Update implements Rule; two-handed rules are dispatched through
// Update2, so this is never called by the machine.
func (r RuleFuncs2) Update(_ Context, _ int, self, _ Cell) Value { return self.D }

// Update2 implements Rule2.
func (r RuleFuncs2) Update2(ctx Context, idx int, self, global1, global2 Cell) Value {
	if r.U2 == nil {
		return self.D
	}
	return r.U2(ctx, idx, self, global1, global2)
}
