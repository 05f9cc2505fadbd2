package ilp_test

import (
	"testing"

	"ccsched/internal/generator"
	"ccsched/internal/ilp"
	"ccsched/internal/ptas"
)

// TestSearchAllocsIndependentOfNodes pins that a serial branch-and-bound
// search allocates per search, not per node: warm-start snapshots are
// recycled once both children of a node have been solved, so raising the
// node budget tenfold on a node-heavy PTAS configuration ILP adds only the
// few allocations of a deeper tree's bookkeeping.
func TestSearchAllocsIndependentOfNodes(t *testing.T) {
	in := generator.Uniform(generator.Config{N: 10, Classes: 3, Machines: 2, Slots: 2, PMax: 30, Seed: 3})
	nf, err := ptas.BuildSplittableNFold(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := nf.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(maxNodes int) float64 {
		var res *ilp.Result
		a := testing.AllocsPerRun(1, func() {
			res, err = ilp.Solve(flat, &ilp.Options{MaxNodes: maxNodes, FirstFeasible: true})
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != ilp.NodeLimit || res.Nodes != maxNodes {
			t.Fatalf("MaxNodes %d: status %v after %d nodes; the fixture must exhaust its budget", maxNodes, res.Status, res.Nodes)
		}
		return a
	}
	const slack = 24
	small, large := allocs(200), allocs(2000)
	if large > small+slack {
		t.Fatalf("allocations grew from %v at 200 nodes to %v at 2000; want at most %d more", small, large, slack)
	}
}
