package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/netem"
	"efdedup/internal/workload"
)

// fastLinks keeps unit tests quick: small but non-zero delays.
func fastLinks(cfg *Config) {
	cfg.EdgeLink = netem.Link{Delay: 200 * time.Microsecond, Bandwidth: 1e9}
	cfg.WANLink = netem.Link{Delay: 2 * time.Millisecond, Bandwidth: 2e8}
}

// smallCluster builds a 4-node, 2-site cluster.
func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := Config{
		Nodes: []NodeSpec{
			{Name: "e0", Site: "siteA"},
			{Name: "e1", Site: "siteA"},
			{Name: "e2", Site: "siteB"},
			{Name: "e3", Site: "siteB"},
		},
		ChunkSize: 2048,
	}
	fastLinks(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// testDataset: video-like, strong cross-node redundancy.
func testDataset(t *testing.T) workload.Dataset {
	t.Helper()
	d := workload.DefaultVideoDataset(7)
	d.Cameras = 4
	d.SitesShared = 2
	d.FrameBlocks = 16
	d.BlockSize = 2048
	d.FramesPerFile = 4
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Nodes: []NodeSpec{{Name: "a", Site: CloudSite}}}); err == nil {
		t.Error("reserved cloud site accepted")
	}
	if _, err := New(Config{Nodes: []NodeSpec{{Name: "a", Site: "s"}, {Name: "a", Site: "s"}}}); err == nil {
		t.Error("duplicate node names accepted")
	}
	if _, err := New(Config{Nodes: []NodeSpec{{Name: "", Site: "s"}}}); err == nil {
		t.Error("empty node name accepted")
	}
}

func TestRunRequiresPartition(t *testing.T) {
	c := smallCluster(t)
	if _, err := c.Run(context.Background(), func(int, int) []byte { return nil }, 1); err == nil {
		t.Fatal("Run before ApplyPartition succeeded")
	}
}

func TestApplyPartitionValidation(t *testing.T) {
	c := smallCluster(t)
	if err := c.ApplyPartition([][]int{{0, 1}}, agent.ModeRing); err == nil {
		t.Error("partial cover accepted")
	}
	if err := c.ApplyPartition([][]int{{0, 1, 2, 3}, {0}}, agent.ModeRing); err == nil {
		t.Error("overlapping rings accepted")
	}
	if err := c.ApplyPartition([][]int{{0, 1, 2, 9}}, agent.ModeRing); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestRingModeEndToEnd(t *testing.T) {
	c := smallCluster(t)
	d := testDataset(t)
	if err := c.ApplyPartition([][]int{{0, 1}, {2, 3}}, agent.ModeRing); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), d.File, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputBytes == 0 || res.UploadedBytes == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.UploadedBytes >= res.InputBytes {
		t.Errorf("no dedup: uploaded %d >= input %d", res.UploadedBytes, res.InputBytes)
	}
	if res.DedupRatio() <= 1.5 {
		t.Errorf("dedup ratio %.2f, want > 1.5 on video-like data", res.DedupRatio())
	}
	if res.AggregateThroughput() <= 0 || res.PerNodeThroughput() <= 0 {
		t.Error("throughput not measured")
	}
	if res.InterSiteBytes == 0 {
		t.Error("no inter-site traffic counted (uploads must cross the WAN)")
	}
}

func TestCloudOnlyVsRingUploadVolume(t *testing.T) {
	d := testDataset(t)
	runMode := func(mode agent.Mode, rings [][]int) RunResult {
		c := smallCluster(t)
		if err := c.ApplyPartition(rings, mode); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), d.File, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ring := runMode(agent.ModeRing, [][]int{{0, 1}, {2, 3}})
	cloudOnly := runMode(agent.ModeCloudOnly, nil)

	if ring.UploadedBytes >= cloudOnly.UploadedBytes {
		t.Errorf("ring mode shipped %d bytes, cloud-only %d: edge dedup must reduce WAN volume",
			ring.UploadedBytes, cloudOnly.UploadedBytes)
	}
	// Cloud-only's server-side dedup can use the global view: its stored
	// bytes are a lower bound for any partitioned edge dedup.
	if cloudOnly.CloudUniqueBytes > ring.UploadedBytes {
		t.Errorf("cloud-only stored %d > ring uploaded %d: global dedup should win on ratio",
			cloudOnly.CloudUniqueBytes, ring.UploadedBytes)
	}
}

// TestRingCountAffectsDedupRatio reproduces Fig. 5(c)'s mechanism: fewer,
// larger rings find more duplicates.
func TestRingCountAffectsDedupRatio(t *testing.T) {
	d := testDataset(t)
	// The agents run one after another, not through the concurrent Run:
	// ring-mates racing on the same fresh chunk both upload it, which
	// makes the uploaded volume depend on timing.
	ratioFor := func(rings [][]int) float64 {
		c := smallCluster(t)
		if err := c.ApplyPartition(rings, agent.ModeRing); err != nil {
			t.Fatal(err)
		}
		var input, uploaded int64
		for i, a := range c.agents {
			for f := 0; f < 2; f++ {
				rep, err := a.ProcessBytes(context.Background(), fmt.Sprintf("e%d/file-%d", i, f), d.File(i, f))
				if err != nil {
					t.Fatal(err)
				}
				input += rep.InputBytes
				uploaded += rep.UploadedBytes
			}
		}
		if uploaded == 0 {
			t.Fatal("nothing uploaded")
		}
		return float64(input) / float64(uploaded)
	}
	// Cameras 0,2 share a scene and 1,3 share a scene. Content-aware
	// pairing finds cross-node duplicates; per-site pairing does not.
	oneRing := ratioFor([][]int{{0, 1, 2, 3}})
	contentPairs := ratioFor([][]int{{0, 2}, {1, 3}})
	sitePairs := ratioFor([][]int{{0, 1}, {2, 3}})
	singletons := ratioFor([][]int{{0}, {1}, {2}, {3}})

	if oneRing < contentPairs-0.01 {
		t.Errorf("one ring ratio %.2f below content pairs %.2f", oneRing, contentPairs)
	}
	if contentPairs <= sitePairs {
		t.Errorf("content pairing %.2f not better than site pairing %.2f", contentPairs, sitePairs)
	}
	if sitePairs < singletons-0.01 {
		t.Errorf("site pairs %.2f below singletons %.2f", sitePairs, singletons)
	}
}

// TestIndexSurvivesNodeFailure: with RF=2, killing one KV daemon must not
// break dedup for the surviving ring members.
func TestIndexSurvivesNodeFailure(t *testing.T) {
	c := smallCluster(t)
	d := testDataset(t)
	if err := c.ApplyPartition([][]int{{0, 1, 2, 3}}, agent.ModeRing); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), d.File, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), func(n, i int) []byte { return d.File(n, i+1) }, 1)
	if err != nil {
		t.Fatalf("run after node failure: %v", err)
	}
	if res.DedupRatio() <= 1 {
		t.Errorf("no dedup after failure: ratio %.2f", res.DedupRatio())
	}
}

// TestWANLatencyHurtsCloudAssisted reproduces the Fig. 5(b) mechanism:
// raising edge↔cloud delay slows cloud-assisted far more than ring mode.
// Each point is the best of three runs: scheduler and GC noise only ever
// slow a run down, so the fastest run is the one that measures the links.
func TestWANLatencyHurtsCloudAssisted(t *testing.T) {
	d := testDataset(t)
	run := func(mode agent.Mode, wanDelay time.Duration) float64 {
		cfg := Config{
			Nodes: []NodeSpec{
				{Name: "e0", Site: "siteA"},
				{Name: "e1", Site: "siteA"},
			},
			ChunkSize: 2048,
			// Small lookup batches put many index round trips on the
			// critical path, which is what distinguishes the modes here.
			LookupBatch: 4,
			EdgeLink:    netem.Link{Delay: 200 * time.Microsecond, Bandwidth: 1e9},
			WANLink:     netem.Link{Delay: wanDelay, Bandwidth: 2e8},
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rings := [][]int{{0, 1}}
		if err := c.ApplyPartition(rings, mode); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), d.File, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.AggregateThroughput()
	}
	throughput := func(mode agent.Mode, wanDelay time.Duration) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			best = max(best, run(mode, wanDelay))
		}
		return best
	}

	const low, high = 2 * time.Millisecond, 40 * time.Millisecond
	ringDrop := throughput(agent.ModeRing, low) / throughput(agent.ModeRing, high)
	assistedDrop := throughput(agent.ModeCloudAssisted, low) / throughput(agent.ModeCloudAssisted, high)
	t.Logf("WAN latency x20: cloud-assisted slowed %.2fx, ring %.2fx", assistedDrop, ringDrop)
	if assistedDrop <= ringDrop {
		t.Errorf("WAN latency x20: cloud-assisted slowed %.2fx vs ring %.2fx — ring should be more resilient",
			assistedDrop, ringDrop)
	}
}
