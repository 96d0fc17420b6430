package efdedup_test

import (
	"fmt"

	"efdedup"
)

// ExamplePartition solves SNOD2 for four edge nodes: two content groups
// crossing two sites. SMART balances storage against network cost.
func ExamplePartition() {
	sys := &efdedup.System{
		PoolSizes: []float64{1000, 1000},
		Sources: []efdedup.Source{
			{ID: 0, Rate: 100, Probs: []float64{0.9, 0}},
			{ID: 1, Rate: 100, Probs: []float64{0, 0.9}},
			{ID: 2, Rate: 100, Probs: []float64{0.9, 0}},
			{ID: 3, Rate: 100, Probs: []float64{0, 0.9}},
		},
		T: 1, Gamma: 2, Alpha: 0.1,
		// ν_ij in ms: sites {0,1} and {2,3}, 5 ms across.
		NetCost: [][]float64{
			{0, 1, 5, 5},
			{1, 0, 5, 5},
			{5, 5, 0, 1},
			{5, 5, 1, 0},
		},
	}
	rings, _, err := efdedup.Partition(efdedup.SMART, sys, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("rings:", len(rings))
	// Every node is in exactly one ring.
	covered := 0
	for _, r := range rings {
		covered += len(r)
	}
	fmt.Println("nodes covered:", covered)
	// Output:
	// rings: 2
	// nodes covered: 4
}

// ExampleSystem_DedupRatio evaluates Theorem 1 for one source and for the
// source clustered with an identical twin: clustering correlated sources
// improves the expected dedup ratio.
func ExampleSystem_DedupRatio() {
	sys := &efdedup.System{
		PoolSizes: []float64{500},
		Sources: []efdedup.Source{
			{ID: 0, Rate: 400, Probs: []float64{0.95}},
			{ID: 1, Rate: 400, Probs: []float64{0.95}},
		},
		T: 1, Gamma: 1,
	}
	solo := sys.DedupRatio([]int{0})
	pair := sys.DedupRatio([]int{0, 1})
	fmt.Println("pair beats solo:", pair > solo)
	// Output:
	// pair beats solo: true
}

// ExampleMeasureSamples measures ground-truth dedup ratios the way
// Algorithm 1 does, on two tiny in-memory samples.
func ExampleMeasureSamples() {
	chunker, err := efdedup.NewFixedChunker(4)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	samples := map[int][][]byte{
		0: {[]byte("aaaabbbb")}, // chunks: aaaa, bbbb
		1: {[]byte("aaaacccc")}, // chunks: aaaa, cccc
	}
	gt, err := efdedup.MeasureSamples(samples, chunker)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The pair {0,1} has 4 chunks, 3 unique.
	for i, subset := range gt.Subsets {
		if len(subset) == 2 {
			fmt.Printf("pair ratio: %.3f\n", gt.Ratios[i])
		}
	}
	// Output:
	// pair ratio: 1.333
}
