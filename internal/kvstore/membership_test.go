package kvstore

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"efdedup/internal/metrics"
	"efdedup/internal/transport"
)

// addNode spins one extra storage node on the network.
func addNode(t *testing.T, nw *transport.MemNetwork, addr string) *Node {
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

func TestAddMemberValidation(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 2)
	c := testCluster(t, nw, ClusterConfig{Members: addrs})
	if err := c.AddMember(""); err == nil {
		t.Error("empty address accepted")
	}
	if err := c.AddMember(addrs[0]); err == nil {
		t.Error("duplicate member accepted")
	}
}

// TestMembershipChangeLeavesSharedSliceAlone builds two coordinators from
// one member slice, as every agent of a ring is built: a RemoveMember on
// one must not shift the caller's slice or the other coordinator's ring.
func TestMembershipChangeLeavesSharedSliceAlone(t *testing.T) {
	nw := transport.NewMemNetwork()
	members := testRing(t, nw, 3)
	want := slices.Clone(members)
	a := testCluster(t, nw, ClusterConfig{Members: members})
	b := testCluster(t, nw, ClusterConfig{Members: members})
	if err := a.RemoveMember(members[0]); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(members, want) {
		t.Errorf("caller's slice = %v after RemoveMember, want %v", members, want)
	}
	if got := b.Members(); !slices.Equal(got, want) {
		t.Errorf("untouched coordinator's members = %v, want %v", got, want)
	}
	if err := b.RemoveMember(want[0]); err != nil {
		t.Errorf("untouched coordinator cannot remove its own member %s: %v", want[0], err)
	}
}

func TestRemoveMemberValidation(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 1)
	c := testCluster(t, nw, ClusterConfig{Members: addrs})
	if err := c.RemoveMember("missing"); err == nil {
		t.Error("unknown member accepted")
	}
	if err := c.RemoveMember(addrs[0]); err == nil {
		t.Error("removing last member accepted")
	}
}

// rebalanceKeys returns n distinct test keys.
func rebalanceKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	return keys
}

// putAll writes keys one BatchPut each, like n separate streams would.
func putAll(t *testing.T, c *Cluster, keys [][]byte) {
	t.Helper()
	for _, k := range keys {
		if err := put(context.Background(), c, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddMemberAndRebalance grows the ring and verifies the new node ends
// up holding its share of the keys and exports its breaker state.
func TestAddMemberAndRebalance(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 3)
	byAddr := nodesByAddr(addrs, nodes)
	reg := metrics.NewRegistry()
	c := testCluster(t, nw, ClusterConfig{
		Members: addrs, ReplicationFactor: 2, WriteConsistency: All, Metrics: reg,
	})
	ctx := context.Background()
	keys := rebalanceKeys(200)
	putAll(t, c, keys)

	newNode := addNode(t, nw, "kv-new")
	byAddr["kv-new"] = newNode
	if err := c.AddMember("kv-new"); err != nil {
		t.Fatal(err)
	}
	if len(c.Members()) != 4 {
		t.Fatalf("members = %v", c.Members())
	}
	// The breaker is the only failure detector, so every member's state,
	// the joiner's included, must be scrapeable.
	gauges := make(map[string]bool)
	for _, s := range reg.Snapshots() {
		gauges[s.Key] = true
	}
	for _, m := range c.Members() {
		if !gauges[metrics.Key("kvstore_breaker_state", "addr", m)] {
			t.Errorf("no kvstore_breaker_state series for member %s", m)
		}
	}
	// Lookups keep working before any data movement: no probe fails, and
	// the only misses are keys whose new primary is the empty joiner (a
	// false negative costs a redundant upload, never a wrong answer).
	found, err := c.BatchHas(ctx, keys)
	if err != nil {
		t.Fatalf("BatchHas during membership change: %v", err)
	}
	for i, ok := range found {
		if !ok && c.replicas(nil, keys[i], "")[0] != "kv-new" {
			t.Fatalf("key %q missed although its primary %s held it before the join", keys[i], c.replicas(nil, keys[i], "")[0])
		}
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	// With RF=2 over 4 nodes, the new node should own ≈ keys/2 entries.
	if got := newNode.Len(); got < len(keys)/5 {
		t.Errorf("new node holds %d keys after rebalance, want a meaningful share", got)
	}
	// Every key sits on every node of its new replica set.
	assertPlacement(t, c, byAddr, keys)
	assertAllFound(t, c, keys, "after rebalance")
}

// TestRemoveMemberAndRebalance decommissions a node and verifies
// replication is restored on the survivors.
func TestRemoveMemberAndRebalance(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 4)
	byAddr := nodesByAddr(addrs, nodes)
	c := testCluster(t, nw, ClusterConfig{
		Members: addrs, ReplicationFactor: 2, WriteConsistency: All,
	})
	ctx := context.Background()
	keys := rebalanceKeys(200)
	putAll(t, c, keys)
	// Decommission node 2: remove from ring, rebalance, then kill it.
	if err := c.RemoveMember(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	nodes[2].Close()
	// Both replicas of every key are survivors now.
	assertPlacement(t, c, byAddr, keys)
	assertAllFound(t, c, keys, "after decommission")
}

func TestRebalanceIdempotent(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 3)
	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 2})
	ctx := context.Background()
	putAll(t, c, rebalanceKeys(50))
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	stats1, err := c.MemberStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	stats2, err := c.MemberStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for addr := range stats1 {
		if stats1[addr].Entries != stats2[addr].Entries {
			t.Errorf("%s entry count changed on idempotent rebalance: %d -> %d",
				addr, stats1[addr].Entries, stats2[addr].Entries)
		}
	}
}

// TestRebalanceFailsWhenMemberRefusesRead: a member that answers the
// table read with an error (here: a vnode count the node's request
// validation rejects) is not an unreachable member to skip silently.
func TestRebalanceFailsWhenMemberRefusesRead(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 2)
	c := testCluster(t, nw, ClusterConfig{Members: addrs, VirtualNodes: 5000})
	if err := c.Rebalance(context.Background()); err == nil {
		t.Fatal("Rebalance succeeded although every member refused the read")
	}
}

// TestAddMemberRaisesEffectiveReplication: γ is not frozen at the member
// count the coordinator was built with. A one-member ring configured with
// γ = 2 starts replicating as soon as a second member joins.
func TestAddMemberRaisesEffectiveReplication(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 2)
	c := testCluster(t, nw, ClusterConfig{Members: addrs[:1], ReplicationFactor: 2})
	ctx := context.Background()
	keys := rebalanceKeys(50)
	values := make([][]byte, len(keys))
	for i := range values {
		values[i] = []byte("v")
	}
	if err := c.BatchPut(ctx, keys, values); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMember(addrs[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		for _, k := range keys {
			if _, ok := nd.Get(k); !ok {
				t.Fatalf("node %d lacks %q after join + rebalance at γ = 2", i, k)
			}
		}
	}
	stats, err := c.RepairOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs != 1 || !stats.Converged() {
		t.Fatalf("repair after join: %+v, want 1 converged pair", stats)
	}
}
