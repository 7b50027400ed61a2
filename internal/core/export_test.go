package core

import (
	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// Test-only exports: the kernel lockstep tests live in package core_test
// so they can import internal/verify (which itself imports core) without
// a cycle, but they need the unexported rule and field loader.

// NewProgramRule returns the Figure-2 rule for an n-node layout. The
// result implements gca.KernelRule.
func NewProgramRule(n int) gca.Rule { return rule{lay: Layout{N: n}} }

// NewProgramFieldForTest builds the loaded (n+1)×n field for g.
func NewProgramFieldForTest(g *graph.Graph) *gca.Field {
	return newProgramField(g, Layout{N: g.N()})
}

// NewChainRule returns the rule an unobserved run steps: the Figure-2
// rule plus the chain kernels and their column-0 prologue.
func NewChainRule(n int) gca.Rule { return newChainRule(Layout{N: n}) }

// ChainSchedule is the schedule rewrite Run applies when nothing
// observes sub-generations: each broadcast–mask–reduce chain becomes one
// chain context.
var ChainSchedule = chainSchedule

// IsChain reports whether ctx commits a whole chain.
var IsChain = isChain

// ChainGenerations is the number of stepped contexts one chain covers.
var ChainGenerations = chainGenerations
