package kvstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// flappyNode is a fake storage node that answers pings but whose batchput
// handler can be programmed to fail, modelling a replica that comes back
// just long enough to accept part of its hint backlog.
type flappyNode struct {
	srv *transport.Server

	calls     atomic.Int64 // batchput RPCs received
	delivered atomic.Int64 // hint records accepted
	failAfter atomic.Int64 // accept this many batchput calls, then error
}

func startFlappyNode(t *testing.T, nw *transport.MemNetwork, addr string, failAfter int64) *flappyNode {
	t.Helper()
	f := &flappyNode{srv: transport.NewServer()}
	f.failAfter.Store(failAfter)
	f.srv.Handle(methodPing, func([]byte) ([]byte, error) { return nil, nil })
	f.srv.Handle(methodBatchPut, func(body []byte) ([]byte, error) {
		if f.calls.Add(1) > f.failAfter.Load() {
			return nil, fmt.Errorf("flap: storage engine down")
		}
		if len(body) >= 4 {
			f.delivered.Add(int64(binary.BigEndian.Uint32(body)))
		}
		return nil, nil
	})
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go f.srv.Serve(l) //nolint:errcheck // returns on Close
	t.Cleanup(func() { f.srv.Close() })
	return f
}

// isDown reads the cluster's failure-detector verdict for addr.
func isDown(c *Cluster, addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[addr]
}

// TestHintedHandoffPartialReplayOnFlap: a replica that recovers for
// exactly one replay batch gets that batch, the remaining hints are
// re-queued, the node is marked down again, and a later clean recovery
// converges to zero pending hints with every record delivered exactly
// once.
func TestHintedHandoffPartialReplayOnFlap(t *testing.T) {
	nw := transport.NewMemNetwork()
	testRing(t, nw, 1) // kv-0 is real; kv-1 starts dead

	c := testCluster(t, nw, ClusterConfig{
		Members:           []string{"kv-0", "kv-1"},
		ReplicationFactor: 2,
		WriteConsistency:  One,
		CallTimeout:       200 * time.Millisecond,
		Retry:             retrypolicy.Policy{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond, Seed: 1},
		Breaker:           retrypolicy.BreakerConfig{FailureThreshold: 2, OpenFor: 10 * time.Minute},
	})

	// Queue more than one replay batch of hints while kv-1 is dead. The
	// breaker opens after the first couple of misses, so the bulk of the
	// writes hint immediately instead of timing out one by one.
	ctx := context.Background()
	total := hintReplayBatch + 22
	for i := 0; i < total; i++ {
		if err := put(ctx, c, []byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
			t.Fatalf("BatchPut %d at ONE with kv-1 down: %v", i, err)
		}
	}
	if got := c.PendingHints()["kv-1"]; got != total {
		t.Fatalf("pending hints = %d, want %d", got, total)
	}

	// kv-1 flaps up: it accepts exactly one batchput, then fails again.
	flap := startFlappyNode(t, nw, "kv-1", 1)
	c.checkMembers()

	if got := flap.calls.Load(); got != 2 {
		t.Fatalf("batchput calls during flap = %d, want 2 (one accepted, one failed)", got)
	}
	if got := flap.delivered.Load(); got != int64(hintReplayBatch) {
		t.Fatalf("records delivered during flap = %d, want %d", got, hintReplayBatch)
	}
	if got := c.PendingHints()["kv-1"]; got != total-hintReplayBatch {
		t.Fatalf("re-queued hints = %d, want %d", got, total-hintReplayBatch)
	}
	if !isDown(c, "kv-1") {
		t.Fatal("mid-replay failure did not mark the node down again")
	}

	// Clean recovery: the next sweep replays the remainder and converges.
	flap.failAfter.Store(1 << 30)
	c.checkMembers()

	if got := c.PendingHints()["kv-1"]; got != 0 {
		t.Fatalf("pending hints after recovery = %d, want 0", got)
	}
	if got := flap.delivered.Load(); got != int64(total) {
		t.Fatalf("total records delivered = %d, want %d (each hint exactly once)", got, total)
	}
	if isDown(c, "kv-1") {
		t.Fatal("recovered node still marked down")
	}
}

// TestCheckMembersConcurrentSweep: one dead member must not serialize the
// health sweep — with many members and a PingTimeout, the sweep finishes
// in roughly one timeout, not members × timeout.
func TestCheckMembersConcurrentSweep(t *testing.T) {
	nw := transport.NewMemNetwork()
	members := []string{"kv-a", "kv-b", "kv-c", "kv-d", "kv-e"} // none exist
	c := testCluster(t, nw, ClusterConfig{
		Members:     members,
		PingTimeout: 100 * time.Millisecond,
	})
	start := time.Now()
	c.checkMembers()
	// Mem-network dials to unknown addresses fail instantly, so even the
	// serial version passes a wall-clock bound; assert the observable
	// contract instead: every member probed and marked down in one sweep.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("sweep of 5 dead members took %v", d)
	}
	for _, m := range members {
		if !isDown(c, m) {
			t.Fatalf("member %s not marked down after sweep", m)
		}
	}
}
