// Package trace records generation-by-generation snapshots of a GCA run —
// field data, resolved pointers and active-cell masks — and renders them
// as ASCII matrices in the style of the paper's Figure 3 ("Access Patterns
// for n = 4. The cell numbers correspond to the linear index. … Active
// cells are shaded.").
package trace

import (
	"fmt"
	"strings"

	"gcacc/internal/gca"
)

// Step is a retained copy of one committed machine step.
type Step struct {
	// Ctx is the control context the step ran under.
	Ctx gca.Context
	// Data is the field data after the step.
	Data []gca.Value
	// Pointers is the resolved pointer per cell (gca.NoRead = none);
	// nil when the run did not capture pointers.
	Pointers []int32
	// Changed marks cells whose data changed; nil without capture.
	Changed []bool
	// Active is the number of changed cells.
	Active int
	// MaxDelta is the maximum read congestion (0 without congestion
	// collection).
	MaxDelta int
}

// Recorder is a gca.Observer that retains copies of every step (up to a
// configurable cap).
type Recorder struct {
	maxSteps int
	steps    []Step
	dropped  int
}

// NewRecorder returns a recorder keeping at most maxSteps steps;
// maxSteps ≤ 0 means unlimited.
func NewRecorder(maxSteps int) *Recorder {
	return &Recorder{maxSteps: maxSteps}
}

// OnStep implements gca.Observer; it deep-copies the reusable buffers.
func (r *Recorder) OnStep(f *gca.Field, s *gca.StepStats) {
	if r.maxSteps > 0 && len(r.steps) >= r.maxSteps {
		r.dropped++
		return
	}
	st := Step{
		Ctx:      s.Ctx,
		Data:     f.Snapshot(nil),
		Active:   s.Active,
		MaxDelta: s.MaxCongestion,
	}
	if s.Pointers != nil {
		st.Pointers = append([]int32(nil), s.Pointers...)
	}
	if s.Changed != nil {
		st.Changed = append([]bool(nil), s.Changed...)
	}
	r.steps = append(r.steps, st)
}

// Steps returns the retained steps in execution order.
func (r *Recorder) Steps() []Step { return r.steps }

// formatValue renders a data word, using the conventional symbol for ∞.
func formatValue(v gca.Value) string {
	if v == gca.Inf {
		return "∞"
	}
	return fmt.Sprintf("%d", v)
}

// RenderDataGrid renders the field data after the step, marking active
// cells with '*'.
func RenderDataGrid(st Step, rows, cols int) string {
	return renderGrid(rows, cols, func(idx int) (string, bool) {
		active := st.Changed != nil && st.Changed[idx]
		return formatValue(st.Data[idx]), active
	})
}

// RenderAccessGrid renders each cell's resolved global pointer ("→t"), or
// "·" for cells that performed no read. It requires pointer capture.
func RenderAccessGrid(st Step, rows, cols int) string {
	return renderGrid(rows, cols, func(idx int) (string, bool) {
		active := st.Changed != nil && st.Changed[idx]
		if st.Pointers == nil || st.Pointers[idx] == int32(gca.NoRead) {
			return "·", active
		}
		return fmt.Sprintf("→%d", st.Pointers[idx]), active
	})
}

// renderGrid lays out per-cell strings in a bordered fixed-width grid.
// Cells flagged active carry a '*' suffix, the textual stand-in for the
// paper's shading.
func renderGrid(rows, cols int, cell func(idx int) (string, bool)) string {
	if rows <= 0 || cols <= 0 {
		return ""
	}
	texts := make([]string, rows*cols)
	width := 1
	for idx := range texts {
		s, active := cell(idx)
		if active {
			s += "*"
		}
		texts[idx] = s
		if w := runeLen(s); w > width {
			width = w
		}
	}
	var b strings.Builder
	sep := "+" + strings.Repeat(strings.Repeat("-", width+2)+"+", cols) + "\n"
	for r := 0; r < rows; r++ {
		b.WriteString(sep)
		for c := 0; c < cols; c++ {
			s := texts[r*cols+c]
			b.WriteString("| ")
			b.WriteString(s)
			b.WriteString(strings.Repeat(" ", width-runeLen(s)+1))
		}
		b.WriteString("|\n")
	}
	b.WriteString(sep)
	return b.String()
}

// runeLen counts runes, so "∞" and "→" occupy one column.
func runeLen(s string) int { return len([]rune(s)) }

// Summary formats a one-line description of a step.
func Summary(st Step) string {
	return fmt.Sprintf("iter=%d gen=%d sub=%d active=%d maxδ=%d",
		st.Ctx.Iteration, st.Ctx.Generation, st.Ctx.Sub, st.Active, st.MaxDelta)
}
