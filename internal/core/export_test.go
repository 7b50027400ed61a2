package core

import (
	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// Test-only exports: the chain battery lives in package core_test so it
// can import internal/verify (which itself imports core) without a
// cycle, but it needs the unexported rules and field loader.

// NewProgramRule returns the generic Figure-2 rule for an n-node layout.
func NewProgramRule(n int) gca.Rule { return rule{lay: Layout{N: n}} }

// NewProgramFieldForTest builds the loaded (n+1)×n field for g.
func NewProgramFieldForTest(g *graph.Graph) *gca.Field {
	return newProgramField(g, Layout{N: g.N()})
}

// NewChainRule returns the rule an unobserved run steps: the Figure-2
// rule plus the chained run's kernel and its column-0 prologue.
func NewChainRule(n int) gca.Rule { return newChainRule(Layout{N: n}) }

// ChainSchedule is the control sequence of an unobserved run.
func ChainSchedule(iterations int) []gca.Context {
	ctxs := make([]gca.Context, 1+3*iterations)
	for k := range ctxs {
		ctxs[k] = chainStep(k)
	}
	return ctxs
}

// StepGenerations is the number of stepped contexts a committed step
// covers.
var StepGenerations = stepGenerations

// SubChain is the Sub of chain and tail contexts.
const SubChain = subChain
