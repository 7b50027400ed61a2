package pram

import (
	"fmt"
	"math/rand"
	"testing"

	"gcacc/internal/graph"
)

func BenchmarkMachineStep(b *testing.B) {
	for _, procs := range []int{1 << 8, 1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			m := New(CREW, procs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Step(procs, func(p *Proc) {
					v := p.Read((p.ID + 1) % procs)
					p.Write(p.ID, v+1)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHirschbergVsShiloachVishkin(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{32, 64} {
		g := graph.Gnp(n, 0.3, rng)
		b.Run(fmt.Sprintf("hirschberg/n=%d", n), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				res, err := Hirschberg(g, Options{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Costs.Steps
			}
			b.ReportMetric(float64(steps), "pram-steps")
		})
		b.Run(fmt.Sprintf("shiloach-vishkin/n=%d", n), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				res, err := ShiloachVishkin(g, ShiloachVishkinOptions{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Costs.Steps
			}
			b.ReportMetric(float64(steps), "pram-steps")
		})
	}
}
