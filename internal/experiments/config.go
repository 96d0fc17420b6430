package experiments

import (
	"fmt"
	"io"
	"time"

	"efdedup/internal/cluster"
	"efdedup/internal/model"
	"efdedup/internal/netem"
	"efdedup/internal/workload"
)

// Config scales and seeds the experiment drivers.
type Config struct {
	// Quick shrinks every experiment to seconds for CI; the full-size
	// runs follow the paper's dimensions.
	Quick bool
	// Seed decorrelates repeated runs; the default 1 reproduces the
	// committed EXPERIMENTS.md numbers.
	Seed int64
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// HashWorkers/LookupInflight override the agents' pipeline
	// concurrency in every testbed; zero keeps the agent defaults.
	HashWorkers    int
	LookupInflight int
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// repeats is how many times each testbed point is measured and averaged
// (the paper averages 20 runs; 3 keeps the full suite to minutes).
func (c Config) repeats() int {
	if c.Quick {
		return 1
	}
	return 3
}

// Paper testbed geometry (Sec. V-B): 20 edge nodes in 10 geographical
// groups, 0.85 ms within a group, 5 ms between groups (default), 12.2 ms
// to the cloud.
const (
	paperNodes   = 20
	paperSites   = 10
	paperRings   = 5
	intraSiteRTT = 850 * time.Microsecond
	interSiteRTT = 5 * time.Millisecond
	wanRTT       = 12200 * time.Microsecond
	// Bandwidths are scaled down ~20x from the paper's measured values
	// (1.726 Gbps edge, 0.377 Gbps WAN) because the emulated runs push
	// ~100x less data per node than the paper's 80-187 MB files; the
	// scaling keeps the experiments in the same bandwidth-bound regime
	// (WAN uplink is the bottleneck) with wall-clock runs of seconds.
	edgeBandwidth  = 10e6  // bytes/s per site pair
	wanBandwidth   = 2.5e6 // bytes/s per site-cloud uplink
	defaultGamma   = 2
	defaultAlpha   = 0.1
	accelChunkSize = 2048
	videoChunkSize = 4096
)

// layout places n nodes round-robin over sites.
func layout(n, sites int) []cluster.NodeSpec {
	if sites > n {
		sites = n
	}
	specs := make([]cluster.NodeSpec, n)
	for i := range specs {
		specs[i] = cluster.NodeSpec{
			Name: fmt.Sprintf("e%02d", i),
			Site: fmt.Sprintf("site-%d", i%sites),
		}
	}
	return specs
}

// testbedConfig assembles the cluster config for n nodes.
func testbedConfig(n, sites, chunkSize int, interRTT, wanDelay time.Duration) cluster.Config {
	return cluster.Config{
		Nodes:             layout(n, sites),
		ChunkSize:         chunkSize,
		ReplicationFactor: defaultGamma,
		EdgeLink:          netem.Link{Delay: interRTT, Bandwidth: edgeBandwidth},
		WANLink:           netem.Link{Delay: wanDelay, Bandwidth: wanBandwidth},
		IntraSiteLink:     netem.Link{Delay: intraSiteRTT, Bandwidth: edgeBandwidth},
		// Arrival jitter: unsynchronized flows let later nodes hit the
		// hashes earlier ring members already indexed.
		StartStagger: 25 * time.Millisecond,
		// Small lookup batches keep index round trips on the critical
		// path, as in the duperemove-based prototype — this is what makes
		// WAN-latency lookups (cloud-assisted) slower than edge-local
		// ones (the Fig. 5 separation).
		LookupBatch: 8,
	}
}

// datasets returns the two evaluation workloads sized for the config.
// Each node processes filesPerRun files of roughly fileBytes each.
func (c Config) accelDataset() *workload.AccelDataset {
	d := workload.DefaultAccelDataset(c.seed())
	if c.Quick {
		d.SegmentsPerFile = 128 // ~256 KiB files
		d.Participants = 2      // quick 4-node runs still pair correlated nodes
	} else {
		d.SegmentsPerFile = 512 // ~1 MiB files
	}
	d.SegmentBytes = accelChunkSize
	return d
}

func (c Config) videoDataset(nodes int) *workload.VideoDataset {
	d := workload.DefaultVideoDataset(c.seed())
	d.Cameras = nodes
	d.SitesShared = max(2, nodes/4) // several cameras per scene
	d.BlockSize = videoChunkSize
	// Few frames per file: most redundancy then lives ACROSS cameras
	// sharing a scene rather than between frames of one file, which is
	// what makes ring composition matter (Fig. 5(a), 6(b)).
	if c.Quick {
		d.FrameBlocks = 16
		d.FramesPerFile = 2 // ~128 KiB files
	} else {
		d.FrameBlocks = 80
		d.FramesPerFile = 3 // ~1 MiB files
	}
	return d
}

// accelSystem derives the SNOD2 instance matching AccelDataset's
// generative ground truth for n nodes laid out over the given sites.
// Node i plays participant i % Participants. ν_ij is the RTT in seconds
// between the nodes' sites.
func accelSystem(d *workload.AccelDataset, specs []cluster.NodeSpec, chunksPerWindow float64, interRTT time.Duration, gamma, alpha float64) *model.System {
	n := len(specs)
	// Pools: one shared motif pool + one per participant.
	pools := make([]float64, 1+d.Participants)
	pools[0] = float64(d.SharedMotifs)
	for p := 0; p < d.Participants; p++ {
		pools[1+p] = float64(d.GroupMotifs)
	}
	srcs := make([]model.Source, n)
	for i := range srcs {
		probs := make([]float64, len(pools))
		probs[0] = d.SharedProb
		probs[1+i%d.Participants] = 1 - d.SharedProb - d.UniqueProb
		srcs[i] = model.Source{ID: i, Rate: chunksPerWindow, Probs: probs}
	}
	return &model.System{
		PoolSizes: pools,
		Sources:   srcs,
		T:         1,
		Gamma:     gamma,
		Alpha:     alpha,
		NetCost:   rttMatrix(specs, interRTT),
	}
}

// videoSystem derives the SNOD2 instance matching VideoDataset's ground
// truth.
func videoSystem(d *workload.VideoDataset, specs []cluster.NodeSpec, chunksPerWindow float64, interRTT time.Duration, gamma, alpha float64) *model.System {
	n := len(specs)
	pools := make([]float64, d.SitesShared)
	for s := range pools {
		pools[s] = float64(d.FrameBlocks)
	}
	background := float64(d.FrameBlocks-d.MovingBlocks) / float64(d.FrameBlocks)
	srcs := make([]model.Source, n)
	for i := range srcs {
		probs := make([]float64, len(pools))
		probs[i%d.SitesShared] = background
		srcs[i] = model.Source{ID: i, Rate: chunksPerWindow, Probs: probs}
	}
	return &model.System{
		PoolSizes: pools,
		Sources:   srcs,
		T:         1,
		Gamma:     gamma,
		Alpha:     alpha,
		NetCost:   rttMatrix(specs, interRTT),
	}
}

// rttMatrix builds ν_ij from the node layout: intra-site RTT within a
// site, interRTT across sites. Costs are expressed in milliseconds per
// lookup — the unit under which the paper's α values (0.1 on the testbed)
// put the storage and network terms on comparable scales.
func rttMatrix(specs []cluster.NodeSpec, interRTT time.Duration) [][]float64 {
	n := len(specs)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i == j {
				continue
			}
			if specs[i].Site == specs[j].Site {
				cost[i][j] = float64(intraSiteRTT.Microseconds()) / 1e3
			} else {
				cost[i][j] = float64(interRTT.Microseconds()) / 1e3
			}
		}
	}
	return cost
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
