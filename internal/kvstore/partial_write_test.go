package kvstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// TestBatchPutPartialFailureNamesFailedKeys: with one of two RF=1 nodes
// isolated by the network topology, a batch write must (a) apply the live
// node's key subset durably, and (b) return a PartialWriteError naming
// exactly the dead node's keys — not a bare error that makes the caller
// treat the whole batch as lost (the bug behind over-counted
// IndexInsertFailures).
func TestBatchPutPartialFailureNamesFailedKeys(t *testing.T) {
	nw := transport.NewMemNetwork()
	fabric := netem.NewTopology(netem.Link{})
	defer fabric.Close()
	fnw := fabric.NetworkFor("edge", nw)

	var nodes []*Node
	var addrs []string
	for i := 0; i < 2; i++ {
		node, err := NewNode(NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		l, err := fnw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(l)
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
		addrs = append(addrs, addr)
	}

	c, err := NewCluster(ClusterConfig{
		Members:           addrs,
		ReplicationFactor: 1,
		Network:           fnw,
		Retry:             retrypolicy.Policy{MaxAttempts: 1, AttemptTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 64
	keys := make([][]byte, n)
	values := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
		values[i] = []byte("v")
	}

	fabric.Isolate(addrs[1])
	err = c.BatchPut(context.Background(), keys, values)
	if err == nil {
		t.Fatal("batch put succeeded with a replica isolated")
	}
	var partial *PartialWriteError
	if !errors.As(err, &partial) {
		t.Fatalf("error is %T (%v), want *PartialWriteError", err, err)
	}
	if !errors.Is(err, ErrNoQuorum) {
		t.Errorf("PartialWriteError does not unwrap to ErrNoQuorum: %v", err)
	}
	if partial.Total != n {
		t.Errorf("Total = %d, want %d", partial.Total, n)
	}
	if len(partial.FailedKeys) == 0 || len(partial.FailedKeys) == n {
		t.Fatalf("failed keys = %d of %d; the hash ring should split the batch",
			len(partial.FailedKeys), n)
	}

	// The live node's subset is durable: applied count + failed count
	// covers the whole batch.
	if got := nodes[0].Len(); got != n-len(partial.FailedKeys) {
		t.Errorf("live node holds %d keys, want %d (batch %d - failed %d)",
			got, n-len(partial.FailedKeys), n, len(partial.FailedKeys))
	}
	// And the failed keys are exactly the ones the live node does NOT
	// hold.
	for _, k := range partial.FailedKeys {
		if _, ok := nodes[0].Get(k); ok {
			t.Errorf("key %q reported failed but present on live node", k)
		}
	}
}
