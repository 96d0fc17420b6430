// Package efdedup is the public API of the EF-dedup library: collaborative
// data deduplication at the network edge, reproducing Li et al., "EF-dedup:
// Enabling Collaborative Data Deduplication at the Network Edge" (ICDCS
// 2019).
//
// The library decomposes into the paper's pipeline:
//
//  1. Model the sources (chunk pools + characteristic vectors): System,
//     Source, and the Theorem 1 quantities (DedupRatio, UniqueChunks,
//     NetworkCost).
//  2. Estimate the model from sampled files (Algorithm 1): MeasureSamples
//     and FitModel, or the end-to-end NewPlan.
//  3. Partition edge nodes into D2-rings (SNOD2 / Algorithm 2): SMART and
//     the baseline partitioners.
//  4. Deploy: a distributed KV index per ring, a Dedup Agent per node and
//     a central cloud store — either in-process via Testbed, or as real
//     daemons via the cmd/ binaries.
//
// The quickstart in examples/quickstart walks the full pipeline on a
// synthetic workload.
package efdedup

import (
	"efdedup/internal/core"
	"efdedup/internal/estimate"
	"efdedup/internal/model"
	"efdedup/internal/partition"
)

// Core model types (paper Sec. II, Theorem 1).
type (
	// System is a SNOD2 instance: chunk pools, sources, window,
	// replication factor γ, trade-off α and the network cost matrix.
	System = model.System
	// Source is one edge node's statistical description: its chunk rate
	// and characteristic vector over the chunk pools.
	Source = model.Source
	// PartitionCost is the SNOD2 objective value of a partition.
	PartitionCost = model.PartitionCost
)

// Planning types (the paper's full pipeline).
type (
	// PlanInput configures NewPlan: per-node samples, rates, network
	// costs, window, γ, α and the ring budget.
	PlanInput = core.PlanInput
	// Plan is a deployment decision: fitted model, SNOD2 system, D2-ring
	// assignment and its analytic cost.
	Plan = core.Plan
)

// Estimation types (Algorithm 1, Sec. III-A).
type (
	// GroundTruth holds measured dedup ratios over sampled source
	// subsets.
	GroundTruth = estimate.GroundTruth
	// Estimate is a fitted chunk-pool model.
	Estimate = estimate.Estimate
	// FitConfig tunes the Algorithm 1 search.
	FitConfig = estimate.Config
)

// Partitioner is a SNOD2 solver: it splits a System's sources into at most
// m D2-rings.
type Partitioner = partition.Algorithm

// Built-in partitioners (Sec. III-C and the paper's baselines).
var (
	// SMART is the production solver: Eq. 13 greedy seeds refined by
	// local search, best-of-portfolio under the full SNOD2 objective.
	SMART Partitioner = partition.Portfolio{}
	// SMARTGreedy is the plain Algorithm 2 greedy, exactly as published.
	SMARTGreedy Partitioner = partition.SmartGreedy{}
	// SMARTEqualSize is the load-balanced variant with ⌈N/M⌉ capacity.
	SMARTEqualSize Partitioner = partition.EqualSize{}
	// MatchingPartitioner is the hierarchical minimum-weight-matching
	// accelerator of Sec. III-C.
	MatchingPartitioner Partitioner = partition.Matching{}
	// GroupPackPartitioner packs whole content clusters into rings —
	// a coarse-grained seed that excels when sources have dominant
	// chunk pools (one of SMART's portfolio seeds).
	GroupPackPartitioner Partitioner = partition.GroupPack{}
	// NetworkOnly ignores the storage term (baseline of Fig. 6(c)).
	NetworkOnly Partitioner = partition.SmartGreedy{Obj: partition.NetworkOnlyObjective}
	// DedupOnly ignores the network term (baseline of Fig. 6(c)).
	DedupOnly Partitioner = partition.SmartGreedy{Obj: partition.DedupOnlyObjective}
	// Optimal enumerates every partition (≤ 12 sources) for gap studies.
	Optimal Partitioner = partition.BruteForce{}
)

// NewPlan runs the paper's full pipeline: measure the samples, fit the
// chunk-pool model (Algorithm 1), assemble the SNOD2 instance and
// partition the nodes into D2-rings (SMART).
func NewPlan(in PlanInput) (*Plan, error) { return core.MakePlan(in) }

// Partition solves SNOD2 for an explicit system with the given solver and
// ring budget, returning the rings and their cost.
func Partition(p Partitioner, sys *System, rings int) ([][]int, PartitionCost, error) {
	return partition.Evaluate(p, sys, rings)
}

// MeasureSamples chunk-deduplicates every subset of the sampled sources
// and records the ground-truth dedup ratios Algorithm 1 fits against.
func MeasureSamples(samples map[int][][]byte, chunker Chunker) (*GroundTruth, error) {
	return estimate.Measure(samples, chunker)
}

// FitModel runs Algorithm 1's parameter search against measured ground
// truth.
func FitModel(gt *GroundTruth, cfg FitConfig) (*Estimate, error) {
	return estimate.Fit(gt, cfg)
}
