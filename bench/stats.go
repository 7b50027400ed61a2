package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must leave
// beyond it: a p90 or a p10 needs 100 samples, a p99 1000. A percentile
// with a thinner tail is decided by a handful of requests and does not
// repeat.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs, refusing any q
// that leaves fewer than minTail samples on its shorter side.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if tail := min(q, 1-q); n == 0 || float64(n)*tail < minTail-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, int(math.Ceil(minTail/tail-1e-9)), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	return s[max(i, 0)], nil
}

// median is the middle of a handful of repeated measurements (set-up
// repetitions, per-second counts, in-process timings), where the
// percentile rule does not apply: each value is already an aggregate.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean is the arithmetic mean, 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perSecond buckets completion times into whole seconds after start and
// returns one count per second of a phase lasting secs seconds.
func perSecond(start time.Time, secs int, done []time.Time) []float64 {
	counts := make([]float64, secs)
	for _, t := range done {
		if k := int(t.Sub(start) / time.Second); !t.Before(start) && k < secs {
			counts[k]++
		}
	}
	return counts
}

// capacity is the closed-loop completion rate: the median of the
// per-second counts, which ignores a second disturbed by a neighbour on
// a shared host where a mean would not.
func capacity(counts []float64) float64 { return median(counts) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced interval. Spans of one request share Req; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns every span's self time — its duration minus the part
// of its interval that its children's union covers — grouped by name,
// in milliseconds.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered is the length of [lo, hi) that the union of the spans covers.
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}
