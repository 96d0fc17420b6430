package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// repairRing spins up n storage nodes and returns both the addresses and
// the node handles, so tests can tamper with replica state directly.
func repairRing(t *testing.T, nw *transport.MemNetwork, n int) ([]string, []*Node) {
	t.Helper()
	addrs := make([]string, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("kv-%d", i)
		nodes[i] = serveNode(t, nw, addrs[i])
	}
	return addrs, nodes
}

// serveNode starts a storage node listening on addr.
func serveNode(t *testing.T, nw *transport.MemNetwork, addr string) *Node {
	t.Helper()
	node, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(l)
	t.Cleanup(func() { node.Close() })
	return node
}

// wipe empties a node's table, simulating a replica restarted from lost
// durable state that still answers RPCs.
func wipe(n *Node) {
	n.mu.Lock()
	n.table = make(map[string]Entry)
	n.mu.Unlock()
}

// assertPlacement checks that every key is present on every replica in
// its current replica set.
func assertPlacement(t *testing.T, c *Cluster, nodes map[string]*Node, keys [][]byte) {
	t.Helper()
	for _, key := range keys {
		for _, addr := range c.replicas(nil, key, "") {
			if _, ok := nodes[addr].Get(key); !ok {
				t.Fatalf("replica %s missing key %q after repair", addr, key)
			}
		}
	}
}

func TestRepairConvergesWipedReplica(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 3)
	byAddr := nodesByAddr(addrs, nodes)
	c := testCluster(t, nw, ClusterConfig{
		Members:           addrs,
		ReplicationFactor: 2,
		WriteConsistency:  All,
	})
	ctx := context.Background()
	var keys [][]byte
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("chunk-%03d", i))
		if err := put(ctx, c, k, []byte(fmt.Sprintf("meta-%d", i))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}

	// A converged ring repairs to a no-op.
	stats, err := c.RepairOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged() {
		t.Fatalf("converged ring reported drift: %+v", stats)
	}
	if stats.Pairs != 3 {
		t.Fatalf("compared %d pairs, want 3", stats.Pairs)
	}

	// Wipe one replica — the restarted-with-lost-disk scenario heartbeats
	// cannot detect (the node answers pings, it just lost its table).
	wiped := nodes[1]
	wipe(wiped)
	if wiped.Len() != 0 {
		t.Fatal("wipe failed")
	}

	stats, err = c.RepairOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mismatched == 0 || stats.Pushed == 0 {
		t.Fatalf("repair did not detect the wiped replica: %+v", stats)
	}
	assertPlacement(t, c, byAddr, keys)

	// And the round after proves convergence.
	stats, err = c.RepairOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged() {
		t.Fatalf("ring still divergent after repair: %+v", stats)
	}
}

func TestRepairResolvesVersionTies(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 2)
	c := testCluster(t, nw, ClusterConfig{
		Members:           addrs,
		ReplicationFactor: 2,
	})
	ctx := context.Background()

	// Same key, same version, different value on each replica — the
	// collision two coordinators seeding the same wall-clock version can
	// produce. applyPut rejects ties, so only repair can reconcile it.
	key := []byte("tied")
	nodes[0].applyPut(key, Entry{Value: []byte("alpha"), Version: 7})
	nodes[1].applyPut(key, Entry{Value: []byte("bravo"), Version: 7})

	stats, err := c.RepairOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1: %+v", stats.Conflicts, stats)
	}
	e0, ok0 := nodes[0].Get(key)
	e1, ok1 := nodes[1].Get(key)
	if !ok0 || !ok1 {
		t.Fatal("key lost during conflict resolution")
	}
	if !bytes.Equal(e0.Value, e1.Value) || e0.Version != e1.Version {
		t.Fatalf("replicas still diverge: %q@%d vs %q@%d", e0.Value, e0.Version, e1.Value, e1.Version)
	}
	// The deterministic winner is the larger value bytes, re-written above
	// the tied version so last-write-wins accepts it everywhere.
	if !bytes.Equal(e0.Value, []byte("bravo")) || e0.Version != 8 {
		t.Fatalf("winner = %q@%d, want bravo@8", e0.Value, e0.Version)
	}

	stats, err = c.RepairOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged() {
		t.Fatalf("ring still divergent after conflict resolution: %+v", stats)
	}
}

func TestRepairSkipsUnreplicatedRing(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, _ := repairRing(t, nw, 3)
	c := testCluster(t, nw, ClusterConfig{
		Members:           addrs,
		ReplicationFactor: 1,
	})
	stats, err := c.RepairOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs != 0 {
		t.Fatalf("RF=1 ring compared %d pairs, want 0 (no second copy exists)", stats.Pairs)
	}
}

func TestRepairCountsUnreachablePairs(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 3)
	c := testCluster(t, nw, ClusterConfig{
		Members:           addrs,
		ReplicationFactor: 2,
		Retry:             retrypolicy.Policy{MaxAttempts: 1, AttemptTimeout: 200 * time.Millisecond},
	})
	nodes[2].Close()
	stats, err := c.RepairOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 2 {
		t.Fatalf("failed pairs = %d, want 2 (every pair touching the dead node)", stats.Failed)
	}
}

func TestRepairAfterMembershipChange(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 3)
	byAddr := nodesByAddr(addrs, nodes)
	c := testCluster(t, nw, ClusterConfig{
		Members:           addrs[:2],
		ReplicationFactor: 2,
		WriteConsistency:  All,
	})
	ctx := context.Background()
	var keys [][]byte
	for i := 0; i < 48; i++ {
		k := []byte(fmt.Sprintf("chunk-%03d", i))
		if err := put(ctx, c, k, []byte("meta")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}

	// Join the empty third node: digests now scope over the new ring, so
	// repair (not just Rebalance) must converge placement.
	if err := c.AddMember(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RepairOnce(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := c.RepairOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged() {
		t.Fatalf("ring still divergent after join + repair: %+v", stats)
	}
	assertPlacement(t, c, byAddr, keys)
}

func TestDigestWireRoundTrip(t *testing.T) {
	members := []string{"kv-0", "kv-1", "kv-2"}
	body := encodeDigestReq(2, 64, members, members[:2])
	req, rest, err := decodeDigestReq(body)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decodeDigestReq: %v (rest %d)", err, len(rest))
	}
	if req.rf != 2 || req.vnodes != 64 || len(req.members) != 3 || len(req.scope) != 2 {
		t.Fatalf("round trip mangled request: %+v", req)
	}

	var d [digestBuckets]bucketDigest
	d[3] = bucketDigest{hash: 0xdeadbeef, count: 7}
	got, err := decodeDigestResp(encodeDigestResp(d))
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatal("digest response round trip mangled buckets")
	}

	var want bucketSet
	want.add(0)
	want.add(255)
	preq := encodePullReq(2, 64, members, members[:2], want)
	_, gotSet, err := decodePullReq(preq)
	if err != nil {
		t.Fatal(err)
	}
	if gotSet != want {
		t.Fatal("pull request round trip mangled bucket set")
	}
	if !gotSet.has(0) || !gotSet.has(255) || gotSet.has(7) {
		t.Fatal("bucketSet membership broken")
	}
}
