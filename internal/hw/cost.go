// Package hw models the fully parallel hardware implementation of the
// paper's Section 4: the cell field compiled into FPGA logic, with n²
// standard cells, n extended cells (data-addressed neighbour multiplexers
// for the pointer-chasing generations 10–11), per-cell state registers and
// a global control FSM.
//
// The paper reports a single synthesis data point for an Altera Cyclone II
// EP2C70 (Quartus II): N×(N+1) = 272 cells (N = 16), 23 051 logic
// elements, 2 192 register bits, 71 MHz. We cannot run the proprietary
// toolchain, so this package substitutes a *structural cost model* in
// 4-input-LUT-equivalent logic elements, calibrated so the published point
// is reproduced exactly, and uses it to predict scaling for other N — the
// substitution documented in DESIGN.md. The asymptotic claims of the
// paper's Section 3 (cell cost approaching memory cost; register count
// dominated by the n² field) are properties of the model's structure, not
// of the calibration constants.
package hw

import (
	"fmt"
	"math"

	"gcacc/internal/core"
)

// Synthesis is one row of synthesis results, mirroring the quantities the
// paper reports.
type Synthesis struct {
	// N is the graph size; the design instantiates N·(N+1) cells.
	N int
	// Cells is the total cell count N·(N+1).
	Cells int
	// StandardCells is the number of cells with a generation-addressed
	// static neighbour multiplexer (N²).
	StandardCells int
	// ExtendedCells is the number of cells that additionally carry a
	// data-addressed multiplexer (the first column, N cells).
	ExtendedCells int
	// DataWidth is the width of the d register in bits.
	DataWidth int
	// ControlBits is the size of the global control FSM state
	// (generation, sub-generation and iteration counters, status).
	ControlBits int
	// RegisterBits is the total number of register bits.
	RegisterBits int
	// LogicElements is the estimated logic-element count.
	LogicElements int
	// FMaxMHz is the estimated maximum clock frequency.
	FMaxMHz float64
}

// Calibration constants. leiPerDataBit and the extended/control terms are
// fitted to the single published synthesis row (N = 16); the *structure*
// of each formula follows Figure 4: a register plus a generation-addressed
// multiplexer and min/compare logic per standard cell, an extra
// data-addressed N-way multiplexer per extended cell, and a small global
// controller.
const (
	lePerDataBit    = 10 // LEs per d-register bit in a standard cell (mux tree + compare/min + ∞ handling)
	lePerMuxInput   = 2  // LEs per multiplexer input word-slice in the extended cells' data-addressed mux
	lePerControlBit = 16 // LEs per control-FSM state bit (next-state logic, decode fan-out)
	leControlFixed  = 11 // fixed controller overhead
	fmaxCalibMHz    = 71.0
	fmaxCalibCells  = 272
)

// DataWidth returns the d-register width for a graph of size n: node
// numbers 0…n (the bottom row initialises to its row number n) plus a
// dedicated ∞ code, rounded up to a whole byte as in the reference design.
func DataWidth(n int) int {
	bits := bitsFor(n+1) + 1 // values 0…n plus ∞ flag
	return ((bits + 7) / 8) * 8
}

// ControlBits returns the global controller state size: a 4-bit generation
// counter (12 generations), sub-generation and iteration counters sized
// ⌈log₂(log n + 1)⌉ each, and 6 status/handshake bits.
func ControlBits(n int) int {
	sub := bitsFor(core.SubGenerations(n) + 1)
	iter := bitsFor(core.Iterations(n) + 1)
	return 4 + sub + iter + 6
}

// bitsFor returns the number of bits needed to count 0…x-1 (min 1).
func bitsFor(x int) int {
	if x <= 2 {
		return 1
	}
	b, p := 0, 1
	for p < x {
		p <<= 1
		b++
	}
	return b
}

// Estimate returns the cost-model synthesis estimate for a graph of size n.
func Estimate(n int) Synthesis {
	if n < 1 {
		return Synthesis{N: n}
	}
	s := Synthesis{
		N:             n,
		Cells:         n * (n + 1),
		StandardCells: n * n,
		ExtendedCells: n,
		DataWidth:     DataWidth(n),
		ControlBits:   ControlBits(n),
	}
	s.RegisterBits = s.Cells*s.DataWidth + s.ControlBits

	// The n extended cells are column 0 of the square field; the
	// remaining n² cells (rest of the square plus the bottom row) are
	// standard.
	leStandard := lePerDataBit * s.DataWidth
	leExtended := leStandard + lePerMuxInput*(n*s.DataWidth/4)
	leControl := lePerControlBit*s.ControlBits + leControlFixed
	s.LogicElements = s.StandardCells*leStandard + s.ExtendedCells*leExtended + leControl

	// fmax: the critical path is dominated by the neighbour multiplexer
	// tree, whose depth grows with log₄(cells); calibrated to 71 MHz at
	// 272 cells.
	k := fmaxCalibMHz * (1 + math.Log(float64(fmaxCalibCells))/math.Log(4))
	s.FMaxMHz = k / (1 + math.Log(float64(s.Cells))/math.Log(4))
	return s
}

// PaperReference returns the synthesis row published in Section 4.
func PaperReference() Synthesis {
	return Synthesis{
		N:             16,
		Cells:         272,
		StandardCells: 256,
		ExtendedCells: 16,
		DataWidth:     8,
		ControlBits:   16,
		RegisterBits:  2192,
		LogicElements: 23051,
		FMaxMHz:       71,
	}
}

// RuntimeMicros estimates the wall-clock time of one full run of the
// algorithm on the modelled hardware: TotalGenerations(n) cycles (the
// fully parallel design executes one generation per cycle) at FMax.
func RuntimeMicros(n int) float64 {
	if n < 1 {
		return 0
	}
	s := Estimate(n)
	cycles := float64(core.TotalGenerations(n))
	return cycles / s.FMaxMHz // cycles / (cycles/µs)
}

// String formats a synthesis row like the paper's result line.
func (s Synthesis) String() string {
	return fmt.Sprintf("N×(N+1) = %d cells; logic elements = %d; register bits = %d; clock frequency = %.0f MHz",
		s.Cells, s.LogicElements, s.RegisterBits, s.FMaxMHz)
}
