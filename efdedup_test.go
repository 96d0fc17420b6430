package efdedup_test

import (
	"context"
	"testing"
	"time"

	"efdedup"
)

// TestPublicAPIPipeline exercises the whole public surface: model →
// partition → testbed run, the way a downstream user would.
func TestPublicAPIPipeline(t *testing.T) {
	// A 4-node system with two content groups and two sites.
	sys := &efdedup.System{
		PoolSizes: []float64{500, 500},
		Sources: []efdedup.Source{
			{ID: 0, Rate: 50, Probs: []float64{0.9, 0}},
			{ID: 1, Rate: 50, Probs: []float64{0, 0.9}},
			{ID: 2, Rate: 50, Probs: []float64{0.9, 0}},
			{ID: 3, Rate: 50, Probs: []float64{0, 0.9}},
		},
		T: 1, Gamma: 2, Alpha: 0.1,
		NetCost: [][]float64{
			{0, 1, 5, 5},
			{1, 0, 5, 5},
			{5, 5, 0, 1},
			{5, 5, 1, 0},
		},
	}
	rings, cost, err := efdedup.Partition(efdedup.SMART, sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Aggregate <= 0 {
		t.Fatal("non-positive cost")
	}

	// Deploy an in-process testbed and run a pool-model workload.
	tb, err := efdedup.NewTestbed(efdedup.TestbedConfig{
		Nodes: []efdedup.TestbedNode{
			{Name: "e0", Site: "a"}, {Name: "e1", Site: "a"},
			{Name: "e2", Site: "b"}, {Name: "e3", Site: "b"},
		},
		ChunkSize: 1024,
		EdgeLink:  efdedup.Link{Delay: time.Millisecond, Bandwidth: 1e8},
		WANLink:   efdedup.Link{Delay: 5 * time.Millisecond, Bandwidth: 1e7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	ds, err := efdedup.NewPoolDataset(sys, 1024, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.ApplyPartition(rings, efdedup.ModeRing); err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), ds.File, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.DedupRatio() <= 1 {
		t.Fatalf("no dedup achieved: %v", res.DedupRatio())
	}
	if res.AggregateThroughput() <= 0 {
		t.Fatal("no throughput measured")
	}
}

// TestPublicAPIPlanning exercises NewPlan (Algorithm 1 + SMART).
func TestPublicAPIPlanning(t *testing.T) {
	sys := &efdedup.System{
		PoolSizes: []float64{300},
		Sources: []efdedup.Source{
			{ID: 0, Rate: 1, Probs: []float64{0.9}},
			{ID: 1, Rate: 1, Probs: []float64{0.9}},
		},
		T: 1, Gamma: 1,
	}
	ds, err := efdedup.NewPoolDataset(sys, 512, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[int][][]byte{
		0: {ds.File(0, 0), ds.File(0, 1)},
		1: {ds.File(1, 0), ds.File(1, 1)},
	}
	chunker, err := efdedup.NewFixedChunker(512)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := efdedup.NewPlan(efdedup.PlanInput{
		Samples: samples,
		Chunker: chunker,
		Rates:   []float64{10, 10},
		NetCost: [][]float64{{0, 1}, {1, 0}},
		T:       10, Gamma: 1, Alpha: 0.01,
		Rings: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rings) == 0 {
		t.Fatal("empty plan")
	}
	if plan.Estimate.MeanRelativeError(plan.GroundTruth) > 0.10 {
		t.Fatalf("poor fit: %.1f%%", plan.Estimate.MeanRelativeError(plan.GroundTruth)*100)
	}
}

// TestPublicChunkers covers both chunker constructors.
func TestPublicChunkers(t *testing.T) {
	if _, err := efdedup.NewFixedChunker(0); err == nil {
		t.Error("bad fixed size accepted")
	}
	cdc, err := efdedup.NewContentDefinedChunker(512, 2048, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if cdc == nil {
		t.Fatal("nil chunker")
	}
}

// TestExperimentIDs checks the experiment registry is exposed.
func TestExperimentIDs(t *testing.T) {
	ids := efdedup.ExperimentIDs()
	if len(ids) != 11 {
		t.Fatalf("got %d experiment IDs, want 11", len(ids))
	}
	if ids[0] != "fig2" || ids[len(ids)-1] != "ext-cdc" {
		t.Fatalf("unexpected IDs: %v", ids)
	}
}

// TestSimFacade runs a small simulation through the facade.
func TestSimFacade(t *testing.T) {
	sys, err := efdedup.BuildSimSystem(efdedup.NewSimScenario(20, 0.001, 1))
	if err != nil {
		t.Fatal(err)
	}
	costs, err := efdedup.CompareOnSystem(sys, []efdedup.Partitioner{
		efdedup.SMART, efdedup.NetworkOnly, efdedup.DedupOnly,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("got %d results", len(costs))
	}
	if costs[0].Cost.Aggregate > costs[1].Cost.Aggregate*1.01 ||
		costs[0].Cost.Aggregate > costs[2].Cost.Aggregate*1.01 {
		t.Error("SMART worse than a baseline on the facade path")
	}
}
