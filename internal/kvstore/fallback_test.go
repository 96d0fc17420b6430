package kvstore

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"efdedup/internal/metrics"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// TestBatchHasFallbackIsBatched kills a batch's preferred replicas and
// checks two things: membership answers survive via the backups, and the
// fallback reaches each backup with batched RPCs, not one single-key RPC
// per failed key (the surviving node's served batch_has count stays far
// below the key count).
func TestBatchHasFallbackIsBatched(t *testing.T) {
	ctx := context.Background()
	nw := transport.NewMemNetwork()

	// Two dying nodes plus one survivor with a private metrics registry
	// so its served-RPC count can be read back.
	var nodes []*Node
	var addrs []string
	survivorReg := metrics.NewRegistry()
	for i := 0; i < 3; i++ {
		cfg := NodeConfig{}
		if i == 2 {
			cfg.Metrics = survivorReg
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(l)
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
		addrs = append(addrs, addr)
	}

	cl := testCluster(t, nw, ClusterConfig{
		Members:           addrs,
		ReplicationFactor: 3,
		Retry:             retrypolicy.Policy{MaxAttempts: 1},
	})

	const n = 64
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
		vals[i] = []byte("v")
	}
	// With RF=3 every node holds every key; the survivor can answer alone.
	if err := cl.BatchPut(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}

	servedBefore := survivorBatchHasCount(survivorReg)
	nodes[0].Close()
	nodes[1].Close()

	// Probe the stored keys plus some misses.
	probe := append([][]byte{}, keys...)
	probe = append(probe, []byte("missing-a"), []byte("missing-b"))
	got, err := cl.BatchHas(ctx, probe)
	if err != nil {
		t.Fatalf("BatchHas with 2/3 nodes dead: %v", err)
	}
	for i := 0; i < n; i++ {
		if !got[i] {
			t.Fatalf("stored key %q reported missing", probe[i])
		}
	}
	if got[n] || got[n+1] {
		t.Fatal("missing key reported present")
	}

	// The survivor must have been reached by regrouped batches: with 66
	// keys spread over two dead preferred replicas plus its own share, a
	// handful of batch RPCs suffices. The old per-key fallback issued one
	// RPC per failed key, which this bound rejects.
	served := survivorBatchHasCount(survivorReg) - servedBefore
	if served == 0 {
		t.Fatal("survivor served no batch_has RPCs; fault never exercised the fallback")
	}
	if served > 8 {
		t.Fatalf("survivor served %d batch_has RPCs for %d keys: fallback is not batched", served, len(probe))
	}
}

func survivorBatchHasCount(reg *metrics.Registry) int64 {
	return reg.DurationHistogram("kvstore_node_rpc_seconds", "method", methodBatchHas).Snapshot().Count
}

// fakeClock is a breaker clock tests advance by hand; safe for the
// concurrent reads BatchHas's per-replica goroutines make.
type fakeClock struct{ ns atomic.Int64 }

func (f *fakeClock) Now() time.Time          { return time.Unix(0, f.ns.Load()) }
func (f *fakeClock) Advance(d time.Duration) { f.ns.Add(int64(d)) }

// localLookups runs one BatchHas over keys and returns how many of its
// lookups were answered by the local replica.
func localLookups(t *testing.T, c *Cluster, keys [][]byte) int64 {
	t.Helper()
	before, _ := c.LookupStats()
	if _, err := c.BatchHas(context.Background(), keys); err != nil {
		t.Fatalf("BatchHas: %v", err)
	}
	after, _ := c.LookupStats()
	return after - before
}

func lookupKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	return keys
}

// TestMissedWriteDoesNotStrandLocalReplica: a local replica that misses
// one write and comes back serves the next lookups. The failed write
// leaves its breaker closed, so nothing routes around it; the write it
// missed is refilled by one anti-entropy round.
func TestMissedWriteDoesNotStrandLocalReplica(t *testing.T) {
	nw := transport.NewMemNetwork()
	serveNode(t, nw, "kv-1")
	clk := &fakeClock{}
	c := testCluster(t, nw, ClusterConfig{
		Members:           []string{"kv-0", "kv-1"},
		ReplicationFactor: 2,
		LocalAddr:         "kv-0",
		Retry:             retrypolicy.Policy{MaxAttempts: 1},
		Breaker:           retrypolicy.BreakerConfig{Clock: clk.Now},
	})

	ctx := context.Background()
	// kv-0 is not listening yet: the write lands on kv-1 alone.
	if err := put(ctx, c, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("BatchPut at ONE with kv-0 down: %v", err)
	}
	kv0 := serveNode(t, nw, "kv-0")

	keys := lookupKeys(200)
	if got := localLookups(t, c, keys); got != int64(len(keys)) {
		t.Fatalf("local lookups after kv-0 returned = %d, want %d", got, len(keys))
	}
	if _, err := c.RepairOnce(ctx); err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if e, ok := kv0.Get([]byte("k")); !ok || string(e.Value) != "v" {
		t.Fatalf("kv-0 after repair holds %q (present %v), want v", e.Value, ok)
	}
}

// TestOpenBreakerRoutesAroundReplica: lookups skip a replica only while
// its breaker is open. Once the cool-down passes, the next lookup is the
// half-open trial; its success closes the breaker and the replica serves
// lookups again.
func TestOpenBreakerRoutesAroundReplica(t *testing.T) {
	nw := transport.NewMemNetwork()
	serveNode(t, nw, "kv-0")
	serveNode(t, nw, "kv-1")
	clk := &fakeClock{}
	const openFor = time.Minute
	c := testCluster(t, nw, ClusterConfig{
		Members:           []string{"kv-0", "kv-1"},
		ReplicationFactor: 2,
		LocalAddr:         "kv-0",
		Retry:             retrypolicy.Policy{MaxAttempts: 1},
		Breaker:           retrypolicy.BreakerConfig{FailureThreshold: 1, OpenFor: openFor, Clock: clk.Now},
	})

	keys := lookupKeys(200)
	c.peers.Breaker("kv-0").Failure()
	if got := localLookups(t, c, keys); got != 0 {
		t.Fatalf("local lookups with kv-0's breaker open = %d, want 0", got)
	}

	clk.Advance(openFor)
	if got := localLookups(t, c, keys); got != int64(len(keys)) {
		t.Fatalf("local lookups after the cool-down = %d, want %d", got, len(keys))
	}
	if st := c.BreakerStates()["kv-0"]; st != retrypolicy.Closed {
		t.Fatalf("kv-0 breaker after a successful trial = %v, want closed", st)
	}
	if got := localLookups(t, c, keys); got != int64(len(keys)) {
		t.Fatalf("local lookups after recovery = %d, want %d", got, len(keys))
	}
}
