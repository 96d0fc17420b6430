package efdedup

import (
	"context"

	"efdedup/internal/agent"
	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/cluster"
	"efdedup/internal/kvstore"
	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// Chunker splits byte streams into content-addressed chunks.
type Chunker = chunk.Chunker

// Chunk is one unit of deduplication.
type Chunk = chunk.Chunk

// ChunkID is the SHA-256 content address of a chunk.
type ChunkID = chunk.ID

// NewFixedChunker returns a duperemove-style equal-size chunker.
func NewFixedChunker(size int) (Chunker, error) { return chunk.NewFixedChunker(size) }

// NewContentDefinedChunker returns a gear-hash CDC chunker (the paper's
// "variable-size chunking" extension) with min/average/max chunk sizes.
func NewContentDefinedChunker(min, target, max int) (Chunker, error) {
	return chunk.NewGearChunker(min, target, max)
}

// Agent types: the per-node dedup pipeline (paper Sec. IV).
type (
	// Agent deduplicates streams under one of the three strategies.
	Agent = agent.Agent
	// AgentConfig assembles an Agent.
	AgentConfig = agent.Config
	// AgentMode selects the strategy.
	AgentMode = agent.Mode
	// AgentReport summarizes one processed stream.
	AgentReport = agent.Report
)

// Agent modes, mirroring the paper's comparison.
const (
	// ModeRing deduplicates against the D2-ring's distributed index.
	ModeRing = agent.ModeRing
	// ModeCloudAssisted looks chunk hashes up in the cloud's index.
	ModeCloudAssisted = agent.ModeCloudAssisted
	// ModeCloudOnly ships raw data; the cloud deduplicates.
	ModeCloudOnly = agent.ModeCloudOnly
)

// NewAgent builds a dedup agent.
func NewAgent(cfg AgentConfig) (*Agent, error) { return agent.New(cfg) }

// Index types: the distributed KV store holding a ring's dedup index.
type (
	// IndexNode is one storage replica daemon.
	IndexNode = kvstore.Node
	// IndexNodeConfig configures a replica (WAL path etc.).
	IndexNodeConfig = kvstore.NodeConfig
	// IndexCluster is the client-side coordinator over a ring's
	// replicas.
	IndexCluster = kvstore.Cluster
	// IndexClusterConfig configures replication factor, write consistency
	// and membership.
	IndexClusterConfig = kvstore.ClusterConfig
	// Consistency selects how many replicas must acknowledge a write:
	// ONE / QUORUM / ALL.
	Consistency = kvstore.Consistency
)

// Consistency levels.
const (
	One    = kvstore.One
	Quorum = kvstore.Quorum
	All    = kvstore.All
)

// NewIndexNode starts (but does not serve) a storage replica.
func NewIndexNode(cfg IndexNodeConfig) (*IndexNode, error) { return kvstore.NewNode(cfg) }

// NewIndexCluster builds a coordinator over a ring's replicas.
func NewIndexCluster(cfg IndexClusterConfig) (*IndexCluster, error) {
	return kvstore.NewCluster(cfg)
}

// Cloud types: the central content-addressed store.
type (
	// CloudServer is the central store daemon.
	CloudServer = cloudstore.Server
	// CloudServerConfig configures it.
	CloudServerConfig = cloudstore.Config
	// CloudClient talks to a CloudServer.
	CloudClient = cloudstore.Client
	// CloudStats summarizes what the cloud stored.
	CloudStats = cloudstore.Stats
	// RestoreOptions tunes the streaming container-restore pipeline.
	RestoreOptions = cloudstore.RestoreOptions
	// RestoreStats reports what one streaming restore moved.
	RestoreStats = cloudstore.RestoreStats
)

// NewCloudServer builds a central store.
func NewCloudServer(cfg CloudServerConfig) (*CloudServer, error) {
	return cloudstore.NewServer(cfg)
}

// Dialer abstracts how clients reach services: real TCP
// (transport.TCPNetwork), the in-memory fabric, or a netem-shaped view.
type Dialer = transport.Dialer

// DialCloud connects a client to a cloud store.
func DialCloud(ctx context.Context, d Dialer, addr string) (*CloudClient, error) {
	return cloudstore.Dial(ctx, d, addr)
}

// Network emulation types (the NetEm stand-in).
type (
	// Link is a delay+bandwidth path description.
	Link = netem.Link
	// Topology maps node addresses to sites and site pairs to links, and
	// scripts partitions and node isolation (Partition, Isolate, Schedule).
	Topology = netem.Topology
)

// NewTopology builds a topology with a fallback link for unspecified site
// pairs.
func NewTopology(fallback Link) *Topology { return netem.NewTopology(fallback) }

// Resilience types: the retry/backoff/circuit-breaker layer under every
// RPC path.
type (
	// RetryPolicy tunes capped exponential backoff with jitter.
	RetryPolicy = retrypolicy.Policy
	// BreakerConfig tunes the per-address circuit breaker.
	BreakerConfig = retrypolicy.BreakerConfig
	// BreakerState is closed / open / half-open.
	BreakerState = retrypolicy.BreakerState
)

// DialCloudWithPolicy connects a cloud client with explicit retry and
// breaker settings.
func DialCloudWithPolicy(ctx context.Context, d Dialer, addr string, p RetryPolicy, b BreakerConfig) (*CloudClient, error) {
	return cloudstore.DialWithPolicy(ctx, d, addr, p, b)
}

// Testbed types: the in-process deployment harness (the stand-in for the
// paper's OpenStack + EC2 testbed).
type (
	// Testbed is a running in-process deployment.
	Testbed = cluster.Cluster
	// TestbedConfig lays out nodes, sites and links.
	TestbedConfig = cluster.Config
	// TestbedNode places one edge node at a site.
	TestbedNode = cluster.NodeSpec
	// RunResult aggregates one workload run.
	RunResult = cluster.RunResult
)

// NewTestbed starts the deployment's always-on services.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) { return cluster.New(cfg) }

// SumChunk returns the content address (SHA-256) of a chunk payload.
func SumChunk(data []byte) ChunkID { return chunk.Sum(data) }
