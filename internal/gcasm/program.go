package gcasm

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"gcacc/internal/gca"
)

// Generations returns the names of the declared generations in order.
func (p *Program) Generations() []string {
	names := make([]string, len(p.gens))
	for i, g := range p.gens {
		names[i] = g.name
	}
	return names
}

// log2Ceil mirrors the paper's log n.
func log2Ceil(n int) int {
	k, pw := 0, 1
	for pw < n {
		pw <<= 1
		k++
	}
	return k
}

// EvalPointer evaluates the compiled pointer operation of generation gi
// for cell idx at problem size n and sub-generation sub, with the data
// registers (d, dstar, a, iter) zeroed. It exists so static analyses
// (internal/gcasm/check) can cross-check their abstract semantics
// against the runtime closures; it returns NoneValue when the generation
// has no pointer operation.
func EvalPointer(p *Program, gi, idx, n, sub int) int64 {
	g := p.gens[gi]
	if g.pointer == nil {
		return NoneValue
	}
	e := env{
		row:   int64(idx) / int64(n),
		col:   int64(idx) % int64(n),
		index: int64(idx),
		n:     int64(n),
		sub:   int64(sub),
	}
	var evalErr error
	return g.pointer(&e, &evalErr)
}

// progRule adapts a Program to the machine's Rule interface. The
// Context.Generation field carries the index of the generation in the
// program's declaration order.
type progRule struct {
	prog *Program
	n    int64

	mu  sync.Mutex
	err error
}

var _ gca.Rule = (*progRule)(nil)

func (r *progRule) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *progRule) envFor(ctx gca.Context, idx int, self gca.Cell) env {
	return env{
		d:     int64(self.D),
		a:     int64(self.A),
		row:   int64(idx) / r.n,
		col:   int64(idx) % r.n,
		index: int64(idx),
		n:     r.n,
		sub:   int64(ctx.Sub),
		iter:  int64(ctx.Iteration),
	}
}

// Pointer implements gca.Rule.
func (r *progRule) Pointer(ctx gca.Context, idx int, self gca.Cell) int {
	g := r.prog.gens[ctx.Generation]
	if g.pointer == nil {
		return gca.NoRead
	}
	e := r.envFor(ctx, idx, self)
	var evalErr error
	v := g.pointer(&e, &evalErr)
	if evalErr != nil {
		r.fail(evalErr)
		return int(r.n*r.n + r.n) // force a machine addressing error
	}
	if v == noneValue {
		return gca.NoRead
	}
	return int(v)
}

// Update implements gca.Rule.
func (r *progRule) Update(ctx gca.Context, idx int, self, global gca.Cell) gca.Value {
	g := r.prog.gens[ctx.Generation]
	if g.data == nil {
		return self.D
	}
	e := r.envFor(ctx, idx, self)
	e.dstar = int64(global.D)
	var evalErr error
	v := g.data(&e, &evalErr)
	if evalErr != nil {
		r.fail(evalErr)
		return self.D
	}
	if v == noneValue {
		r.fail(fmt.Errorf("gcasm: generation %q: data operation produced 'none'", g.name))
		return self.D
	}
	return gca.Value(v)
}

// RunConfig configures Program.Run.
type RunConfig struct {
	// Ctx, if non-nil, cancels the run between synchronous steps; a
	// program whose schedule resolves to many generations can be
	// abandoned without waiting for it to finish.
	Ctx context.Context
	// N is the problem size (resolves 'n', 'log' and 'scan', and the
	// row/col arithmetic: row = index / n, col = index mod n).
	N int
	// Field is the prepared cell field (layout and aux fields are the
	// caller's contract with the program text).
	Field *gca.Field
	// Workers configures the machine (< 1 = GOMAXPROCS).
	Workers int
	// CollectStats enables congestion collection.
	CollectStats bool
	// Observer, if non-nil, is attached to the machine.
	Observer gca.Observer
}

// RunResult reports a completed program run.
type RunResult struct {
	// Generations is the number of committed synchronous steps.
	Generations int
	// Records holds per-step stats when CollectStats was set.
	Records []StepRecord
}

// StepRecord is one committed step of a DSL program run.
type StepRecord struct {
	GenName   string
	Iteration int
	Sub       int
	Active    int
	Reads     int
	MaxDelta  int
}

// Run executes the program's schedule over the given field.
func (p *Program) Run(cfg RunConfig) (*RunResult, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("gcasm: RunConfig.N must be ≥ 1")
	}
	if cfg.Field == nil {
		return nil, fmt.Errorf("gcasm: RunConfig.Field is nil")
	}
	r := &progRule{prog: p, n: int64(cfg.N)}
	var mopts []gca.Option
	mopts = append(mopts, gca.WithWorkers(cfg.Workers))
	if cfg.CollectStats {
		mopts = append(mopts, gca.WithCongestion())
	}
	if cfg.Observer != nil {
		mopts = append(mopts, gca.WithObserver(cfg.Observer))
	}
	machine := gca.NewMachine(cfg.Field, r, mopts...)

	res := &RunResult{}
	for _, item := range p.schedule {
		reps := item.repeat.Resolve(cfg.N)
		for rep := 0; rep < reps; rep++ {
			for _, name := range item.gens {
				gi := p.genIndex[name]
				times := p.gens[gi].times.Resolve(cfg.N)
				for sub := 0; sub < times; sub++ {
					if cfg.Ctx != nil {
						// Yield so the goroutine calling cancel can run
						// even on a single-CPU scheduler; the inline step
						// path never yields.
						runtime.Gosched()
						if err := cfg.Ctx.Err(); err != nil {
							return nil, err
						}
					}
					ctx := gca.Context{Generation: gi, Sub: sub, Iteration: rep}
					s, err := machine.Step(ctx)
					if err != nil {
						if r.err != nil {
							return nil, r.err
						}
						return nil, fmt.Errorf("gcasm: generation %q sub %d: %w", name, sub, err)
					}
					if r.err != nil {
						return nil, r.err
					}
					res.Generations++
					if cfg.CollectStats {
						res.Records = append(res.Records, StepRecord{
							GenName:   name,
							Iteration: rep,
							Sub:       sub,
							Active:    s.Active,
							Reads:     s.TotalReads,
							MaxDelta:  s.MaxCongestion,
						})
					}
				}
			}
		}
	}
	return res, nil
}
