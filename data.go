package efdedup

import (
	"efdedup/internal/experiments"
	"efdedup/internal/sim"
	"efdedup/internal/workload"
)

// Dataset produces deterministic per-source file contents; the built-in
// datasets stand in for the paper's IoT workloads.
type Dataset = workload.Dataset

// NewAccelDataset mirrors the paper's first dataset: walking
// accelerometer traces from correlated participants.
var NewAccelDataset = workload.DefaultAccelDataset

// NewPoolDataset emits streams straight from a chunk-pool System, so
// measured dedup matches Theorem 1 predictions.
func NewPoolDataset(sys *System, chunkSize, chunksPerFile int, seed int64) (Dataset, error) {
	return workload.NewPoolDataset(sys, chunkSize, chunksPerFile, seed)
}

// Simulation types (paper Sec. V-C).
type (
	// SimScenario parameterizes a large-scale synthetic deployment.
	SimScenario = sim.ScenarioConfig
	// SimAlgoCost is one partitioner's cost on a scenario.
	SimAlgoCost = sim.AlgoCost
)

// NewSimScenario mirrors the Sec. V-C setup for a node count and α.
func NewSimScenario(nodes int, alpha float64, seed int64) SimScenario {
	return sim.DefaultScenario(nodes, alpha, seed)
}

// BuildSimSystem materializes a scenario as a SNOD2 System.
func BuildSimSystem(cfg SimScenario) (*System, error) { return sim.Build(cfg) }

// CompareOnSystem evaluates several partitioners on one system.
func CompareOnSystem(sys *System, algos []Partitioner, rings int) ([]SimAlgoCost, error) {
	return sim.Compare(sys, algos, rings)
}

// ExperimentIDs lists the available figure IDs in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}
