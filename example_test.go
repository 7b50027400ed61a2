package gcacc_test

import (
	"fmt"

	"gcacc"
)

// The package-level example: label the connected components of a small
// graph on the simulated Global Cellular Automaton.
func Example() {
	g := gcacc.NewGraph(6)
	g.AddEdge(0, 2)
	g.AddEdge(2, 4)
	g.AddEdge(1, 5)

	labels, err := gcacc.ConnectedComponents(g)
	if err != nil {
		panic(err)
	}
	fmt.Println(labels)
	// Output: [0 1 0 3 0 1]
}

// Use options to pick the PRAM reference engine and inspect the report.
func ExampleConnectedComponentsWith() {
	g := gcacc.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)

	rep, err := gcacc.ConnectedComponentsWith(g, gcacc.Options{Engine: gcacc.EnginePRAM})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Labels, rep.Components)
	// Output: [0 0 2 2] 2
}

// The closed-form generation count of the paper's Section 3.
func ExampleTotalGenerations() {
	fmt.Println(gcacc.TotalGenerations(16))
	// Output: 81
}

// Check an engine's labels, or any other labelling, against the
// independent oracle: a valid labelling names each component by its
// smallest vertex.
func ExampleValidateLabels() {
	g := gcacc.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)

	fmt.Println(gcacc.ValidateLabels(g, []int{0, 0, 2, 2}))
	fmt.Println(gcacc.ValidateLabels(g, []int{0, 0, 3, 3})) // 3 is not the minimum of {2, 3}
	// Output:
	// true
	// false
}

// Transitive closure on the two-handed GCA.
func ExampleTransitiveClosure() {
	g := gcacc.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)

	c, err := gcacc.TransitiveClosure(g)
	if err != nil {
		panic(err)
	}
	fmt.Println(c.Reachable(0, 2), c.Reachable(0, 3))
	// Output: true false
}
