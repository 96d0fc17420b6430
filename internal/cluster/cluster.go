// Package cluster assembles a complete in-process EF-dedup deployment:
// per-edge-node KV storage daemons, a central cloud store, netem-shaped
// links between sites, and a Dedup Agent per edge node — the stand-in for
// the paper's 20-VM OpenStack edge plus 4-VM EC2 cloud testbed.
//
// A Cluster is built once from a node/site layout, then ApplyPartition
// instantiates one distributed index per D2-ring and one agent per node
// (in ring, cloud-assisted or cloud-only mode), and Run drives a dataset
// through every agent in parallel, returning the measured throughput,
// WAN traffic and dedup ratios the paper's figures report.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/netem"
	"efdedup/internal/transport"
)

// CloudSite is the site name reserved for the central cloud.
const CloudSite = "cloud"

// cloudAddr is the cloud store's listen address on the fabric.
const cloudAddr = "cloud-store"

// Paper testbed defaults (Sec. V): measured edge↔edge 1.726 Gbps at
// 0.85 ms, edge↔cloud 0.377 Gbps at 12.2 ms.
var (
	DefaultEdgeLink = netem.Link{
		Delay:     850 * time.Microsecond,
		Bandwidth: 1.726e9 / 8,
	}
	DefaultWANLink = netem.Link{
		Delay:     12200 * time.Microsecond,
		Bandwidth: 0.377e9 / 8,
	}
)

// NodeSpec places one edge node at a site.
type NodeSpec struct {
	// Name is the node identifier (unique).
	Name string
	// Site is the edge-cloud the node lives in.
	Site string
}

// Config lays out a deployment.
type Config struct {
	// Nodes lists the edge nodes.
	Nodes []NodeSpec
	// EdgeLink shapes intra-edge (site-to-site among edge clouds)
	// traffic; defaults to DefaultEdgeLink.
	EdgeLink netem.Link
	// WANLink shapes edge↔cloud traffic; defaults to DefaultWANLink.
	WANLink netem.Link
	// IntraSiteLink shapes traffic between nodes of the same site;
	// zero means unshaped (same host/rack).
	IntraSiteLink netem.Link
	// ChunkSize configures every agent's fixed chunker; defaults to
	// chunk.DefaultFixedSize.
	ChunkSize int
	// ReplicationFactor is the index replication γ; defaults to 2 (the
	// paper's setting).
	ReplicationFactor int
	// LookupBatch/UploadBatch tune the agent pipeline.
	LookupBatch int
	UploadBatch int
	// HashWorkers/LookupInflight tune the agents' pipeline concurrency:
	// SHA-256 workers behind the chunker and overlapped index-lookup
	// batches. Zero takes the agent defaults (GOMAXPROCS-capped workers,
	// agent.DefaultLookupInflight).
	HashWorkers    int
	LookupInflight int
	// StartStagger delays node i's processing by i×StartStagger during
	// Run. Real data flows are not synchronized; without jitter,
	// correlated nodes race each other's index inserts and upload the
	// same chunks concurrently, hiding the cross-node dedup a ring
	// provides. The stagger head is included in the measured wall time.
	StartStagger time.Duration
}

// Cluster is a running deployment.
type Cluster struct {
	cfg   Config
	inner *transport.MemNetwork
	topo  *netem.Topology

	cloud *cloudstore.Server

	kvNodes []*kvstore.Node
	kvAddrs []string

	mu      sync.Mutex
	agents  []*agent.Agent
	indexes []*kvstore.Cluster
	clients []*cloudstore.Client
	rings   [][]int
}

// listenOrClose binds addr on the given network view, closing owner
// when the bind fails — the service being wired up is not yet tracked
// by the Cluster, so no other path would release it.
func listenOrClose(network transport.Network, addr string, owner io.Closer) (net.Listener, error) {
	l, err := network.Listen(addr)
	if err != nil {
		owner.Close()
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return l, nil
}

// New builds and starts the deployment's always-on services (KV daemons
// and the cloud store). Call ApplyPartition before Run.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.Site == "" {
			return nil, fmt.Errorf("cluster: node %+v needs name and site", n)
		}
		if n.Site == CloudSite {
			return nil, fmt.Errorf("cluster: site %q is reserved for the cloud", CloudSite)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	if cfg.EdgeLink == (netem.Link{}) {
		cfg.EdgeLink = DefaultEdgeLink
	}
	if cfg.WANLink == (netem.Link{}) {
		cfg.WANLink = DefaultWANLink
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = chunk.DefaultFixedSize
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 2
	}

	c := &Cluster{
		cfg:   cfg,
		inner: transport.NewMemNetwork(),
		topo:  netem.NewTopology(cfg.EdgeLink),
	}

	// Wire site-pair links: edge→edge default comes from the topology
	// fallback (EdgeLink); edge↔cloud and intra-site are explicit.
	sites := make(map[string]bool)
	for _, n := range cfg.Nodes {
		sites[n.Site] = true
	}
	for s := range sites {
		c.topo.SetSymmetricLink(s, CloudSite, cfg.WANLink)
		if cfg.IntraSiteLink != (netem.Link{}) {
			c.topo.SetLink(s, s, cfg.IntraSiteLink)
		}
	}

	// Cloud store.
	chunker, err := chunk.NewFixedChunker(cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	cloud, err := cloudstore.NewServer(cloudstore.Config{Chunker: chunker})
	if err != nil {
		return nil, err
	}
	cl, err := listenOrClose(c.topo.NetworkFor(CloudSite, c.inner), cloudAddr, cloud)
	if err != nil {
		return nil, err
	}
	cloud.Serve(cl)
	c.cloud = cloud

	// One KV daemon per edge node, listening through its site's view.
	for _, n := range cfg.Nodes {
		node, err := kvstore.NewNode(kvstore.NodeConfig{})
		if err != nil {
			c.Close()
			return nil, err
		}
		addr := "kv-" + n.Name
		// node is not in c.kvNodes yet, so c.Close() cannot reach it;
		// a failed bind must release it here.
		l, err := listenOrClose(c.topo.NetworkFor(n.Site, c.inner), addr, node)
		if err != nil {
			c.Close()
			return nil, err
		}
		node.Serve(l)
		c.kvNodes = append(c.kvNodes, node)
		c.kvAddrs = append(c.kvAddrs, addr)
	}
	return c, nil
}

// Topology exposes the netem topology (for latency sweeps and byte
// counters).
func (c *Cluster) Topology() *netem.Topology { return c.topo }

// CloudStats returns the cloud store's counters.
func (c *Cluster) CloudStats() cloudstore.Stats { return c.cloud.Stats() }

// NodeCount returns the number of edge nodes.
func (c *Cluster) NodeCount() int { return len(c.cfg.Nodes) }

// Sites returns each node's site, indexed like Config.Nodes.
func (c *Cluster) Sites() []string {
	out := make([]string, len(c.cfg.Nodes))
	for i, n := range c.cfg.Nodes {
		out[i] = n.Site
	}
	return out
}

// KillNode stops a node's KV daemon (failure injection). The node's agent
// keeps running; its ring index survives via replication.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.kvNodes) {
		return fmt.Errorf("cluster: node %d out of range", i)
	}
	return c.kvNodes[i].Close()
}

// detachAgentsLocked removes the current agent generation from the
// cluster and returns it so the caller can close it after releasing
// c.mu — index and cloud clients close network connections, which must
// not happen under the testbed mutex (lockedio).
func (c *Cluster) detachAgentsLocked() (indexes []*kvstore.Cluster, clients []*cloudstore.Client) {
	indexes, clients = c.indexes, c.clients
	c.indexes = nil
	c.clients = nil
	c.agents = nil
	return indexes, clients
}

// closeAgents tears down one detached agent generation.
func closeAgents(indexes []*kvstore.Cluster, clients []*cloudstore.Client) {
	for _, idx := range indexes {
		idx.Close()
	}
	for _, cl := range clients {
		cl.Close()
	}
}

// ApplyPartition instantiates agents for the given D2-rings and mode. For
// ring mode, each ring gets an independent distributed index spanning its
// members' KV daemons; other modes ignore rings. The new generation is
// dialed without holding c.mu and installed atomically at the end;
// concurrent ApplyPartition calls are not supported (the testbed drives
// partition changes sequentially).
func (c *Cluster) ApplyPartition(rings [][]int, mode agent.Mode) error {
	c.mu.Lock()
	oldIndexes, oldClients := c.detachAgentsLocked()
	c.rings = rings
	c.mu.Unlock()
	closeAgents(oldIndexes, oldClients)

	chunker, err := chunk.NewFixedChunker(c.cfg.ChunkSize)
	if err != nil {
		return err
	}

	ringOf := make(map[int][]string)
	if mode == agent.ModeRing {
		covered := make(map[int]bool)
		for _, ring := range rings {
			members := make([]string, 0, len(ring))
			for _, idx := range ring {
				if idx < 0 || idx >= len(c.cfg.Nodes) {
					return fmt.Errorf("cluster: ring references node %d out of range", idx)
				}
				if covered[idx] {
					return fmt.Errorf("cluster: node %d in more than one ring", idx)
				}
				covered[idx] = true
				members = append(members, c.kvAddrs[idx])
			}
			for _, idx := range ring {
				ringOf[idx] = members
			}
		}
		if len(covered) != len(c.cfg.Nodes) {
			return fmt.Errorf("cluster: partition covers %d of %d nodes", len(covered), len(c.cfg.Nodes))
		}
	}

	var indexes []*kvstore.Cluster
	var clients []*cloudstore.Client
	agents := make([]*agent.Agent, len(c.cfg.Nodes))
	for i, n := range c.cfg.Nodes {
		view := c.topo.NetworkFor(n.Site, c.inner)
		cloudClient, err := cloudstore.Dial(context.Background(), view, cloudAddr)
		if err != nil {
			closeAgents(indexes, clients)
			return fmt.Errorf("cluster: node %s dial cloud: %w", n.Name, err)
		}
		clients = append(clients, cloudClient)

		cfg := agent.Config{
			Name:           n.Name,
			Mode:           mode,
			Chunker:        chunker,
			Cloud:          cloudClient,
			LookupBatch:    c.cfg.LookupBatch,
			UploadBatch:    c.cfg.UploadBatch,
			HashWorkers:    c.cfg.HashWorkers,
			LookupInflight: c.cfg.LookupInflight,
		}
		if mode == agent.ModeRing {
			idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
				Members:           ringOf[i],
				ReplicationFactor: c.cfg.ReplicationFactor,
				LocalAddr:         c.kvAddrs[i],
				Network:           view,
			})
			if err != nil {
				closeAgents(indexes, clients)
				return fmt.Errorf("cluster: node %s index: %w", n.Name, err)
			}
			indexes = append(indexes, idx)
			cfg.Index = idx
		}
		a, err := agent.New(cfg)
		if err != nil {
			closeAgents(indexes, clients)
			return fmt.Errorf("cluster: node %s agent: %w", n.Name, err)
		}
		agents[i] = a
	}
	c.mu.Lock()
	c.agents = agents
	c.indexes = indexes
	c.clients = clients
	c.mu.Unlock()
	return nil
}

// RunResult aggregates one workload run.
type RunResult struct {
	// Mode the agents ran in.
	Mode agent.Mode
	// PerNode reports, indexed like Config.Nodes.
	PerNode []agent.Report
	// InputBytes is the total pre-dedup data volume.
	InputBytes int64
	// UploadedBytes is the chunk payload volume that crossed the WAN.
	UploadedBytes int64
	// Wall is the wall-clock time of the parallel run.
	Wall time.Duration
	// InterSiteBytes is the netem-observed traffic between different
	// sites (index lookups + uploads), the measurable network cost.
	InterSiteBytes int64
	// CloudUniqueBytes is what the content-addressed cloud actually
	// stores after the run.
	CloudUniqueBytes int64
	// LocalLookups and RemoteLookups count index membership probes that
	// stayed on the issuing node vs crossed the network (ring mode only)
	// — the measured form of the model's 1-γ/|P| remote fraction.
	LocalLookups, RemoteLookups int64
}

// RemoteLookupFraction is the measured probability that an index lookup
// left the issuing node. The model predicts 1-γ/|P| for a ring of size
// |P| with replication factor γ.
func (r RunResult) RemoteLookupFraction() float64 {
	total := r.LocalLookups + r.RemoteLookups
	if total == 0 {
		return 0
	}
	return float64(r.RemoteLookups) / float64(total)
}

// AggregateThroughput is the paper's Fig. 5(a) metric: total input data
// deduplicated per second across all nodes running in parallel.
func (r RunResult) AggregateThroughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.InputBytes) / r.Wall.Seconds()
}

// PerNodeThroughput is mean input bytes/second per edge node.
func (r RunResult) PerNodeThroughput() float64 {
	if len(r.PerNode) == 0 {
		return 0
	}
	return r.AggregateThroughput() / float64(len(r.PerNode))
}

// DedupRatio is input bytes over stored bytes. Ring and cloud-assisted
// agents ship exactly what will be stored; cloud-only ships everything and
// the cloud deduplicates, so the stored volume is the cloud's unique
// bytes.
func (r RunResult) DedupRatio() float64 {
	stored := r.UploadedBytes
	if r.Mode == agent.ModeCloudOnly {
		stored = r.CloudUniqueBytes
	}
	if stored <= 0 {
		return 1
	}
	return float64(r.InputBytes) / float64(stored)
}

// FileFunc returns the content of the index-th file for a node; the
// workload.Dataset interface satisfies it via closure.
type FileFunc func(node, index int) []byte

// Run drives filesPerNode files from the dataset through every agent in
// parallel and collects measurements. Byte counters are reset at the
// start of the run.
func (c *Cluster) Run(ctx context.Context, file FileFunc, filesPerNode int) (RunResult, error) {
	c.mu.Lock()
	agents := c.agents
	mode := agent.ModeRing
	if len(agents) > 0 {
		mode = agents[0].Mode()
	}
	c.mu.Unlock()
	if len(agents) == 0 {
		return RunResult{}, fmt.Errorf("cluster: ApplyPartition before Run")
	}

	baseUnique := c.cloud.Stats().UniqueBytes
	c.topo.ResetCounters()

	res := RunResult{Mode: mode, PerNode: make([]agent.Report, len(agents))}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(agents))
	for i, a := range agents {
		wg.Add(1)
		go func(i int, a *agent.Agent) {
			defer wg.Done()
			if c.cfg.StartStagger > 0 && i > 0 {
				select {
				case <-time.After(time.Duration(i) * c.cfg.StartStagger):
				case <-ctx.Done():
					errs[i] = ctx.Err()
					return
				}
			}
			var nodeTotal agent.Report
			for f := 0; f < filesPerNode; f++ {
				name := fmt.Sprintf("%s/file-%d", c.cfg.Nodes[i].Name, f)
				rep, err := a.ProcessBytes(ctx, name, file(i, f))
				if err != nil {
					errs[i] = err
					return
				}
				nodeTotal.InputBytes += rep.InputBytes
				nodeTotal.InputChunks += rep.InputChunks
				nodeTotal.DuplicateChunks += rep.DuplicateChunks
				nodeTotal.UploadedChunks += rep.UploadedChunks
				nodeTotal.UploadedBytes += rep.UploadedBytes
				nodeTotal.Duration += rep.Duration
			}
			res.PerNode[i] = nodeTotal
		}(i, a)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("cluster: node %s: %w", c.cfg.Nodes[i].Name, err)
		}
	}
	res.Wall = time.Since(start)
	for _, rep := range res.PerNode {
		res.InputBytes += rep.InputBytes
		res.UploadedBytes += rep.UploadedBytes
	}
	res.InterSiteBytes = c.topo.TotalInterSiteBytes()
	res.CloudUniqueBytes = c.cloud.Stats().UniqueBytes - baseUnique
	c.mu.Lock()
	for _, idx := range c.indexes {
		local, remote := idx.LookupStats()
		res.LocalLookups += local
		res.RemoteLookups += remote
	}
	c.mu.Unlock()
	return res, nil
}

// Close tears down every service. The agent generation is detached
// under c.mu and closed outside it; kvNodes and cloud are set once at
// construction and need no lock (matching their unlocked reads in Run).
func (c *Cluster) Close() {
	c.mu.Lock()
	indexes, clients := c.detachAgentsLocked()
	c.mu.Unlock()
	closeAgents(indexes, clients)
	for _, n := range c.kvNodes {
		n.Close()
	}
	if c.cloud != nil {
		c.cloud.Close()
	}
}
