package kvstore

import (
	"context"
	"fmt"
	"testing"
	"time"

	"efdedup/internal/gossip"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// TestClusterWithGossipMembership runs KV nodes with companion gossipers
// and a cluster whose liveness view is the gossip node: after a storage
// node (and its gossiper) dies, the coordinator routes lookups away from
// it based on gossip alone.
func TestClusterWithGossipMembership(t *testing.T) {
	nw := transport.NewMemNetwork()
	const n = 3
	nodes := make([]*Node, n)
	gossipers := make([]*gossip.Node, n)
	kvAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		kvAddrs[i] = fmt.Sprintf("kv-%d", i)
		l, err := nw.Listen(kvAddrs[i])
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(l)
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
	}
	// Each KV node gets a companion gossiper on a side address (same
	// process, same fate); the adapter maps kv→gossip addresses 1:1.
	for i := 0; i < n; i++ {
		var seeds []string
		if i > 0 {
			seeds = []string{"gossip-kv-0"}
		}
		g, err := gossip.Start(gossip.Config{
			Addr:     "gossip-" + kvAddrs[i],
			Network:  nw,
			Seeds:    seeds,
			Interval: 15 * time.Millisecond,
			Seed:     int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		gossipers[i] = g
		t.Cleanup(g.Stop)
	}

	view := gossipView{node: gossipers[0]}
	c, err := NewCluster(ClusterConfig{
		Members:           kvAddrs,
		ReplicationFactor: 2,
		WriteConsistency:  All,
		Network:           nw,
		LocalAddr:         kvAddrs[0],
		Membership:        view,
		Retry:             retrypolicy.Policy{AttemptTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Wait for gossip convergence.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(gossipers[0].Alive()) != n {
		time.Sleep(10 * time.Millisecond)
	}
	if len(gossipers[0].Alive()) != n {
		t.Fatal("gossip never converged")
	}

	ctx := context.Background()
	keys := make([][]byte, 40)
	values := make([][]byte, 40)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
		values[i] = []byte("v")
	}
	if err := c.BatchPut(ctx, keys, values); err != nil {
		t.Fatal(err)
	}

	// Kill node 1 and its gossiper; wait until gossip notices.
	nodes[1].Close()
	gossipers[1].Stop()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && gossipers[0].IsAlive("gossip-kv-1") {
		time.Sleep(10 * time.Millisecond)
	}
	if gossipers[0].IsAlive("gossip-kv-1") {
		t.Fatal("gossip never detected the failure")
	}

	// Lookups now avoid the dead node via the membership view: all keys
	// must still resolve through surviving replicas.
	found, err := c.BatchHas(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Errorf("key %d unresolved after gossip-detected failure", i)
		}
	}
}

// gossipView adapts a gossip node to the cluster's LivenessView, mapping
// kv addresses to their companion gossip addresses.
type gossipView struct {
	node *gossip.Node
}

func (v gossipView) IsAlive(kvAddr string) bool {
	return v.node.IsAlive("gossip-" + kvAddr)
}
