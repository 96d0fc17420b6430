package kvstore

import (
	"context"
	"fmt"
	"testing"

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
