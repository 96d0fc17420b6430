package kvstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"efdedup/internal/hashring"
	"efdedup/internal/metrics"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// Consistency selects how many replica acknowledgements an operation
// needs.
type Consistency int

// Consistency levels, mirroring Cassandra's ONE / QUORUM / ALL.
const (
	One Consistency = iota + 1
	Quorum
	All
)

// required returns the number of acknowledgements needed out of n
// replicas.
func (c Consistency) required(n int) int {
	switch c {
	case One:
		return 1
	case All:
		return n
	default:
		return n/2 + 1
	}
}

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case One:
		return "ONE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// ClusterConfig configures a coordinator for one D2-ring's index.
type ClusterConfig struct {
	// Members are the storage node addresses of the ring.
	Members []string
	// ReplicationFactor is γ: how many nodes hold each key. Defaults
	// to 2 (the paper's choice); a ring with fewer members holds each
	// key on all of them.
	ReplicationFactor int
	// WriteConsistency is how many of a key's replicas must acknowledge
	// a BatchPut. Defaults to One, matching the eventual-consistency
	// deployment in the paper.
	WriteConsistency Consistency
	// LocalAddr, when set to one of Members, is preferred for lookups
	// whose replica set contains it — the "consult its local Cassandra
	// node" behaviour.
	LocalAddr string
	// Network provides connectivity (possibly netem-shaped).
	Network transport.Dialer
	// VirtualNodes per member on the hash ring; defaults to
	// hashring.DefaultVirtualNodes.
	VirtualNodes int
	// RepairInterval enables background anti-entropy when positive: the
	// coordinator periodically exchanges Merkle-style digests between
	// replica pairs and streams only the differing entries, reconciling
	// replicas that restarted from stale durable state or missed writes
	// during a partition.
	RepairInterval time.Duration
	// Retry tunes the per-RPC retry/backoff schedule (transient faults
	// are absorbed below the consistency layer instead of surfacing as
	// ErrNoQuorum). Zero fields take retrypolicy defaults, except the
	// per-attempt timeout, which defaults to 5s.
	Retry retrypolicy.Policy
	// Breaker tunes the per-address circuit breaker, the coordinator's
	// failure detector: lookups route around a replica while its breaker
	// is open and try it again once the cool-down half-opens it.
	Breaker retrypolicy.BreakerConfig
	// Metrics receives the coordinator's instrumentation (per-method RPC
	// latency histograms, breaker-state gauges, lookup counters).
	// Nil records into metrics.Default().
	Metrics *metrics.Registry
}

// The coordinator-wide retry budget caps retry amplification: a bucket
// of retryBudgetTokens, each successful call refilling retryBudgetRefill.
const (
	retryBudgetTokens = 256
	retryBudgetRefill = 0.5
)

// ErrNoQuorum is returned when too few replicas acknowledged an operation.
var ErrNoQuorum = errors.New("kvstore: not enough replicas responded")

// Cluster is a client-side coordinator over the ring's storage nodes.
// It is safe for concurrent use.
type Cluster struct {
	cfg  ClusterConfig
	ring *hashring.Ring

	peers *transport.Peers

	versionCounter atomic.Uint64

	mu sync.Mutex // guards cfg.Members and cfg.LocalAddr

	stopRepair chan struct{}
	repairDone chan struct{}

	remoteLookups atomic.Int64
	localLookups  atomic.Int64

	reg *metrics.Registry // resolved cfg.Metrics; AddMember registers joiners' gauges
	met clusterMetrics
}

// clusterMetrics pre-resolves the coordinator's instruments so the hot
// path pays one map lookup at construction time, not per call.
type clusterMetrics struct {
	rpc      map[string]*metrics.Histogram // per-method latency (seconds)
	rpcFails map[string]*metrics.Counter   // per-method failed calls
	local    *metrics.Counter              // lookups answered by the local node
	remote   *metrics.Counter              // lookups that crossed the network

	repairRounds   *metrics.Counter // completed anti-entropy sweeps
	repairMismatch *metrics.Counter // replica pairs whose digests differed
	repairPushed   *metrics.Counter // entries streamed during repair
	repairFails    *metrics.Counter // replica pairs that failed to reconcile
}

// clientMethods are the RPC methods a coordinator issues.
var clientMethods = []string{
	methodBatchHas, methodBatchPut, methodStats, methodDigest, methodPull,
}

func newClusterMetrics(reg *metrics.Registry) clusterMetrics {
	m := clusterMetrics{
		rpc:      make(map[string]*metrics.Histogram, len(clientMethods)),
		rpcFails: make(map[string]*metrics.Counter, len(clientMethods)),
		local:    reg.Counter("kvstore_client_lookups_local_total"),
		remote:   reg.Counter("kvstore_client_lookups_remote_total"),

		repairRounds:   reg.Counter("kvstore_repair_rounds_total"),
		repairMismatch: reg.Counter("kvstore_repair_mismatches_total"),
		repairPushed:   reg.Counter("kvstore_repair_entries_pushed_total"),
		repairFails:    reg.Counter("kvstore_repair_pair_failures_total"),
	}
	for _, method := range clientMethods {
		m.rpc[method] = reg.DurationHistogram("kvstore_client_rpc_seconds", "method", method)
		m.rpcFails[method] = reg.Counter("kvstore_client_rpc_failures_total", "method", method)
	}
	return m
}

// NewCluster validates cfg and builds a coordinator.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("%w: cluster needs at least one member", ErrConfig)
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("%w: cluster needs a network", ErrConfig)
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 2
	}
	if cfg.WriteConsistency == 0 {
		cfg.WriteConsistency = One
	}
	if cfg.VirtualNodes == 0 {
		cfg.VirtualNodes = hashring.DefaultVirtualNodes
	}
	if cfg.Retry.AttemptTimeout == 0 {
		cfg.Retry.AttemptTimeout = 5 * time.Second
	}
	// The coordinator owns its member list: RemoveMember edits it in
	// place, which must not reach the caller's (often shared) slice.
	cfg.Members = slices.Clone(cfg.Members)
	ring, err := hashring.New(cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(cfg.Members))
	for _, m := range cfg.Members {
		if seen[m] {
			return nil, fmt.Errorf("%w: duplicate member %q", ErrConfig, m)
		}
		seen[m] = true
		ring.Add(m)
	}
	if cfg.LocalAddr != "" && !seen[cfg.LocalAddr] {
		return nil, fmt.Errorf("%w: local address %q is not a member", ErrConfig, cfg.LocalAddr)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	c := &Cluster{
		cfg:   cfg,
		ring:  ring,
		peers: transport.NewPeers(cfg.Network, cfg.Retry, cfg.Breaker, retrypolicy.NewBudget(retryBudgetTokens, retryBudgetRefill)),
		reg:   reg,
		met:   newClusterMetrics(reg),
	}
	for _, addr := range cfg.Members {
		c.registerBreakerGauge(addr)
	}
	c.versionCounter.Store(uint64(time.Now().UnixNano()))
	if cfg.RepairInterval > 0 {
		c.stopRepair = make(chan struct{})
		c.repairDone = make(chan struct{})
		go c.repairLoop()
	}
	return c, nil
}

// registerBreakerGauge exports addr's breaker state as a live gauge.
// Registration replaces any previous cluster's callback under the same
// series, so a recreated coordinator (common in tests; daemons build
// exactly one) reports its own state.
func (c *Cluster) registerBreakerGauge(addr string) {
	c.reg.GaugeFunc("kvstore_breaker_state", func() float64 {
		return float64(c.peers.Breaker(addr).State())
	}, "addr", addr)
}

// Close stops the repair loop and tears down connections. It is
// terminal: later calls fail with transport.ErrClientClosed.
func (c *Cluster) Close() error {
	if c.stopRepair != nil {
		close(c.stopRepair)
		<-c.repairDone
	}
	return c.peers.Close()
}

// nextVersion returns a monotonically increasing write version.
func (c *Cluster) nextVersion() uint64 { return c.versionCounter.Add(1) }

// call performs one RPC against addr through the peer set, under the
// retry policy, the address's circuit breaker and the retry budget, each
// attempt bounded by Retry.AttemptTimeout.
func (c *Cluster) call(ctx context.Context, addr, method string, body []byte) ([]byte, error) {
	sp := metrics.StartTimer(c.met.rpc[method])
	resp, err := c.peers.Call(ctx, addr, method, body)
	sp.End()
	if err != nil && !transport.IsRemoteError(err) {
		c.met.rpcFails[method].Inc()
	}
	return resp, err
}

// BreakerStates snapshots every member's circuit-breaker state (for
// observability and tests).
func (c *Cluster) BreakerStates() map[string]retrypolicy.BreakerState {
	return c.peers.BreakerStates()
}

// replicas appends the replica set for key to dst in preference order:
// the local member first when it is in the set.
func (c *Cluster) replicas(dst []string, key []byte, local string) []string {
	start := len(dst)
	dst = c.ring.LookupAppend(dst, key, c.cfg.ReplicationFactor)
	reps := dst[start:]
	if i := slices.Index(reps, local); i > 0 {
		reps[0], reps[i] = reps[i], reps[0]
	}
	return dst
}

// skip reports whether lookups should route around addr: its circuit
// breaker is open. The breaker is the one failure detector; it opens on
// consecutive failed calls and half-opens after its cool-down, so a
// recovered replica is tried again without any background probing.
func (c *Cluster) skip(addr string) bool {
	return c.peers.Breaker(addr).State() == retrypolicy.Open
}

// BatchHas answers membership for many keys with one RPC per contacted
// node: the dedup hot path. Keys are grouped by their preferred replica
// (local node when possible, otherwise the primary), or the next one
// while the preferred replica is skipped; failed nodes fall back to the
// next replica.
func (c *Cluster) BatchHas(ctx context.Context, keys [][]byte) ([]bool, error) {
	out := make([]bool, len(keys))
	c.mu.Lock()
	localAddr := c.cfg.LocalAddr
	c.mu.Unlock()
	// Group key indices by target replica, with per-key fallback lists.
	groups := make(map[string][]int)
	fallbacks := make([][]string, len(keys))
	all := make([]string, 0, len(keys)*c.cfg.ReplicationFactor) // every key's replicas, back to back
	skipped := make(map[string]bool)                            // liveness, read once per replica per call
	for i, key := range keys {
		start := len(all)
		all = c.replicas(all, key, localAddr)
		reps := all[start:len(all):len(all)]
		if len(reps) == 0 {
			return nil, fmt.Errorf("%w: empty ring", ErrNoQuorum)
		}
		target := reps[0]
		if len(reps) > 1 {
			skip, ok := skipped[target]
			if !ok {
				skip = c.skip(target)
				skipped[target] = skip
			}
			if skip {
				target = reps[1]
			}
		}
		groups[target] = append(groups[target], i)
		fallbacks[i] = reps
	}
	// Issue all per-target probes concurrently: a batch's latency is one
	// round trip to the slowest replica, not the sum over replicas.
	var wg sync.WaitGroup
	var (
		errMu    sync.Mutex
		firstErr error
	)
	for addr, idxs := range groups {
		if addr == localAddr {
			c.localLookups.Add(int64(len(idxs)))
			c.met.local.Add(int64(len(idxs)))
		} else {
			c.remoteLookups.Add(int64(len(idxs)))
			c.met.remote.Add(int64(len(idxs)))
		}
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			sub := make([][]byte, len(idxs))
			for j, i := range idxs {
				sub[j] = keys[i]
			}
			resp, err := c.call(ctx, addr, methodBatchHas, encodeKeyList(sub))
			if err == nil && len(resp) == len(idxs) {
				for j, i := range idxs {
					out[i] = resp[j] == 1
				}
				return
			}
			// Batched fallback through the remaining replicas.
			if ferr := c.batchHasFallback(ctx, keys, idxs, fallbacks, addr, out); ferr != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = ferr
				}
				errMu.Unlock()
			}
		}(addr, idxs)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// batchHasFallback re-resolves idxs after their preferred replica failed.
// Instead of probing each key's backups one key at a time — one
// single-key RPC per key, O(keys) serial round trips precisely when the
// ring is degraded — the surviving keys are regrouped by their next
// untried replica and probed with one batched RPC per node. Rounds
// repeat on what remains: a round answers every key whose node responds
// and marks the nodes that failed, so the next round regroups only the
// leftovers against nodes not yet known dead. Terminates because every
// round either empties pending or grows the dead set.
func (c *Cluster) batchHasFallback(ctx context.Context, keys [][]byte, idxs []int, fallbacks [][]string, failed string, out []bool) error {
	dead := map[string]bool{failed: true}
	var firstErr error
	pending := idxs
	groups := make(map[string][]int)
	for len(pending) > 0 {
		clear(groups)
		for _, i := range pending {
			next := ""
			for _, addr := range fallbacks[i] {
				if !dead[addr] {
					next = addr
					break
				}
			}
			if next == "" {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: all replicas unreachable", ErrNoQuorum)
				}
				return firstErr
			}
			groups[next] = append(groups[next], i)
		}
		remaining := make([]int, 0, len(pending))
		for addr, g := range groups {
			sub := make([][]byte, len(g))
			for j, i := range g {
				sub[j] = keys[i]
			}
			resp, err := c.call(ctx, addr, methodBatchHas, encodeKeyList(sub))
			if err == nil && len(resp) == len(g) {
				for j, i := range g {
					out[i] = resp[j] == 1
				}
				continue
			}
			if err == nil {
				err = fmt.Errorf("%w: batch-has response from %s has %d answers, want %d", ErrProto, addr, len(resp), len(g))
			}
			if firstErr == nil {
				firstErr = err
			}
			dead[addr] = true
			remaining = append(remaining, g...)
		}
		pending = remaining
	}
	return nil
}

// PartialWriteError reports a batch write that was only partially
// durable: some keys reached their write-consistency target, others did
// not. Because BatchPut groups records per replica, a single failed
// replica call under-replicates only that replica's key subset — the
// rest of the batch IS applied. Callers that account per key (the
// agent's IndexInsertFailures) must count len(FailedKeys), not the whole
// batch.
//
// It wraps ErrNoQuorum, so errors.Is(err, ErrNoQuorum) keeps working.
type PartialWriteError struct {
	// FailedKeys are the keys that missed their consistency target, in
	// batch order (aliases of the caller's slices, not copies).
	FailedKeys [][]byte
	// Total is the batch size the failed keys came from.
	Total int
	// Cause is the first underlying replica error.
	Cause error
}

// Error implements error.
func (e *PartialWriteError) Error() string {
	return fmt.Sprintf("kvstore: batch put: %d/%d keys under-replicated: %v",
		len(e.FailedKeys), e.Total, e.Cause)
}

// Unwrap exposes both the quorum sentinel and the replica cause.
func (e *PartialWriteError) Unwrap() []error { return []error{ErrNoQuorum, e.Cause} }

// BatchPut stores many key/value pairs, grouping records per replica so a
// ring write costs O(replica nodes) RPCs instead of O(keys). The batch
// succeeds when every key reached at least the configured write
// consistency. A failure is a *PartialWriteError naming exactly which
// keys missed their target — the others are durably applied, so callers
// must not treat the whole batch as lost. A replica that missed writes is
// refilled by anti-entropy (RepairOnce, RepairInterval).
func (c *Cluster) BatchPut(ctx context.Context, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("%w: %d keys but %d values", ErrConfig, len(keys), len(values))
	}
	ents := make([]keyedEntry, len(keys))
	for i, key := range keys {
		ents[i] = keyedEntry{key: key, e: Entry{Value: values[i], Version: c.nextVersion()}}
	}
	return c.putEntries(ctx, ents)
}

// putEntries is the one write path to a replica: it sends each
// already-versioned entry to its current replica set (one kv.batchput per
// replica) and tallies acks per entry against WriteConsistency. BatchPut
// assigns fresh versions first; Rebalance passes stored entries through
// with theirs.
func (c *Cluster) putEntries(ctx context.Context, ents []keyedEntry) error {
	groups := make(map[string][]int) // replica -> indices into ents
	short := make([]int, len(ents))  // acks each entry still lacks
	var reps []string
	for i, kv := range ents {
		reps = c.ring.LookupAppend(reps[:0], kv.key, c.cfg.ReplicationFactor)
		short[i] = c.cfg.WriteConsistency.required(len(reps))
		for _, addr := range reps {
			groups[addr] = append(groups[addr], i)
		}
	}
	// Replica writes go out concurrently; acks are tallied per entry.
	var (
		wg       sync.WaitGroup
		tallyMu  sync.Mutex
		firstErr error
	)
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			batch := make([]keyedEntry, len(idxs))
			for j, i := range idxs {
				batch[j] = ents[i]
			}
			if _, err := c.call(ctx, addr, methodBatchPut, appendScan(nil, batch)); err != nil {
				tallyMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				tallyMu.Unlock()
				return
			}
			tallyMu.Lock()
			for _, i := range idxs {
				short[i]--
			}
			tallyMu.Unlock()
		}(addr, idxs)
	}
	wg.Wait()
	var failed [][]byte
	for i, lacks := range short {
		if lacks > 0 {
			failed = append(failed, ents[i].key)
		}
	}
	if len(failed) > 0 {
		return &PartialWriteError{FailedKeys: failed, Total: len(ents), Cause: firstErr}
	}
	return nil
}

// LookupStats reports how many membership probes stayed local vs crossed
// the network — the measurable form of the paper's V(P) remote-lookup
// fraction.
func (c *Cluster) LookupStats() (local, remote int64) {
	return c.localLookups.Load(), c.remoteLookups.Load()
}

// MemberStats fetches operation counters from every member.
func (c *Cluster) MemberStats(ctx context.Context) (map[string]NodeStats, error) {
	members := c.Members()
	out := make(map[string]NodeStats, len(members))
	for _, addr := range members {
		resp, err := c.call(ctx, addr, methodStats, nil)
		if err != nil {
			return nil, err
		}
		s, err := decodeStats(resp)
		if err != nil {
			return nil, err
		}
		out[addr] = s
	}
	return out, nil
}

// Members returns the current member addresses.
func (c *Cluster) Members() []string {
	c.mu.Lock()
	out := make([]string, len(c.cfg.Members))
	copy(out, c.cfg.Members)
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// pushBatch is how many stored entries Rebalance and the repair push
// send in one kv.batchput RPC.
const pushBatch = 128
