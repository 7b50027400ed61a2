package tc

import (
	"fmt"

	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// Hirschberg's 1976 transitive-closure algorithm is for *directed*
// reachability; the undirected entry points above are the special case
// the reproduced paper needs. The engines themselves never relied on
// symmetry — boolean squaring and Warshall work on any boolean matrix —
// so this file exposes the general form: closures of arbitrary (possibly
// asymmetric) adjacency bit-matrices.

// GCAMatrix computes the closure of an arbitrary square boolean matrix on
// the two-handed GCA (directed reachability: entry (i,j) means i → j).
func GCAMatrix(adj *graph.BitMatrix, opt GCAOptions) (*GCAResult, error) {
	n := adj.Rows()
	if adj.Cols() != n {
		return nil, fmt.Errorf("tc: adjacency matrix is %d×%d, want square", adj.Rows(), adj.Cols())
	}
	if n == 0 {
		return &GCAResult{Closure: &Closure{N: 0, Bits: graph.NewBitMatrix(0, 0)}}, nil
	}
	field := gca.NewField(n * n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if adj.Get(i, j) {
				field.SetCell(i*n+j, gca.Cell{A: 1})
			}
		}
	}
	return runClosureMachine(field, n, opt)
}

// runClosureMachine drives the squaring program over a prepared field.
func runClosureMachine(field *gca.Field, n int, opt GCAOptions) (*GCAResult, error) {
	var mopts []gca.Option
	mopts = append(mopts, gca.WithWorkers(opt.Workers))
	if opt.CollectStats {
		mopts = append(mopts, gca.WithCongestion())
	}
	machine := gca.NewMachine(field, tcRule{n: n}, mopts...)

	res := &GCAResult{Squarings: log2Ceil(n)}
	step := func(ctx gca.Context) error {
		s, err := machine.Step(ctx)
		if err != nil {
			return fmt.Errorf("tc: gca generation %d sub %d: %w", ctx.Generation, ctx.Sub, err)
		}
		res.Generations++
		if s.MaxCongestion > res.MaxDelta {
			res.MaxDelta = s.MaxCongestion
		}
		return nil
	}
	if err := step(gca.Context{Generation: genTCInit}); err != nil {
		return nil, err
	}
	for sq := 0; sq < res.Squarings; sq++ {
		for k := 0; k < n; k++ {
			if err := step(gca.Context{Generation: genTCScan, Sub: k, Iteration: sq}); err != nil {
				return nil, err
			}
		}
		if err := step(gca.Context{Generation: genTCCommit, Iteration: sq}); err != nil {
			return nil, err
		}
	}
	bits := graph.NewBitMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if field.Data(i*n+j)&bitMask != 0 {
				bits.Set(i, j, true)
			}
		}
	}
	res.Closure = &Closure{N: n, Bits: bits}
	return res, nil
}
