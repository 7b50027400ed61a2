package hw

import (
	"math"
	"strings"
	"testing"
)

func TestEstimateReproducesPaperSynthesis(t *testing.T) {
	got := Estimate(16)
	want := PaperReference()
	if got.Cells != want.Cells {
		t.Errorf("Cells = %d, want %d", got.Cells, want.Cells)
	}
	if got.StandardCells != 256 || got.ExtendedCells != 16 {
		t.Errorf("cell split = %d/%d, want 256/16", got.StandardCells, got.ExtendedCells)
	}
	if got.RegisterBits != want.RegisterBits {
		t.Errorf("RegisterBits = %d, want %d", got.RegisterBits, want.RegisterBits)
	}
	if got.LogicElements != want.LogicElements {
		t.Errorf("LogicElements = %d, want %d", got.LogicElements, want.LogicElements)
	}
	if math.Abs(got.FMaxMHz-want.FMaxMHz) > 0.01 {
		t.Errorf("FMaxMHz = %.3f, want %.0f", got.FMaxMHz, want.FMaxMHz)
	}
	if got.DataWidth != 8 || got.ControlBits != 16 {
		t.Errorf("DataWidth/ControlBits = %d/%d, want 8/16", got.DataWidth, got.ControlBits)
	}
}

func TestDataWidth(t *testing.T) {
	cases := map[int]int{2: 8, 16: 8, 100: 8, 255: 16, 1000: 16}
	for n, want := range cases {
		if got := DataWidth(n); got != want {
			t.Errorf("DataWidth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestScalingMonotonic(t *testing.T) {
	prev := Estimate(4)
	for _, n := range []int{8, 16, 32, 64, 128} {
		cur := Estimate(n)
		if cur.Cells <= prev.Cells || cur.RegisterBits <= prev.RegisterBits || cur.LogicElements <= prev.LogicElements {
			t.Errorf("n=%d: resources did not grow: %+v vs %+v", n, cur, prev)
		}
		if cur.FMaxMHz >= prev.FMaxMHz {
			t.Errorf("n=%d: fmax did not degrade: %.1f vs %.1f", n, cur.FMaxMHz, prev.FMaxMHz)
		}
		prev = cur
	}
}

func TestRegisterBitsDominatedByField(t *testing.T) {
	// The Section-3 argument: the register count is dominated by the n²
	// cell field; control contributes O(log log n).
	for _, n := range []int{16, 64, 256} {
		s := Estimate(n)
		fieldBits := s.Cells * s.DataWidth
		if s.RegisterBits-fieldBits != s.ControlBits {
			t.Errorf("n=%d: unexpected non-field registers", n)
		}
		if float64(s.ControlBits)/float64(s.RegisterBits) > 0.01 {
			t.Errorf("n=%d: control registers not negligible: %d of %d", n, s.ControlBits, s.RegisterBits)
		}
	}
}

func TestCellToMemoryRatioBounded(t *testing.T) {
	// LEs per cell vs bits per cell must stay within a constant band — the
	// paper's "cell cost approaches the cost of a small number of memory
	// cells". LEs per cell over bits per cell is LEs over bits.
	ratio := func(n int) float64 {
		s := Estimate(n)
		return float64(s.LogicElements) / float64(s.RegisterBits)
	}
	base := ratio(16)
	for _, n := range []int{8, 32, 128, 512} {
		r := ratio(n)
		if r < base/4 || r > base*4 {
			t.Errorf("n=%d: ratio %.2f escaped the constant band around %.2f", n, r, base)
		}
	}
}

func TestRuntimeMicros(t *testing.T) {
	r16 := RuntimeMicros(16)
	// 16 nodes: 1 + 4·(3·4+8) = 81 generations at 71 MHz ≈ 1.14 µs.
	if r16 < 1.0 || r16 > 1.3 {
		t.Errorf("RuntimeMicros(16) = %.3f, want ≈ 1.14", r16)
	}
	if RuntimeMicros(0) != 0 {
		t.Error("RuntimeMicros(0) != 0")
	}
	if RuntimeMicros(256) <= r16 {
		t.Error("runtime should grow with n")
	}
}

func TestEstimateDegenerate(t *testing.T) {
	s := Estimate(0)
	if s.Cells != 0 || s.LogicElements != 0 {
		t.Errorf("Estimate(0) = %+v", s)
	}
}

func TestSynthesisString(t *testing.T) {
	got := Estimate(16).String()
	for _, want := range []string{"272 cells", "23051", "2192", "71 MHz"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 17: 5, 256: 8, 257: 9}
	for x, want := range cases {
		if got := bitsFor(x); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", x, got, want)
		}
	}
}
