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

// FuseReduces is the schedule rewrite Run applies when nothing observes
// sub-generations: each reduce generation becomes one fused context.
var FuseReduces = fuseReduces

// IsFusedReduce reports whether ctx commits a whole reduce generation.
var IsFusedReduce = isFusedReduce
