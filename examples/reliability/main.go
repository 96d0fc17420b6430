// Reliability: the fault-tolerance machinery of EF-dedup, exercised
// end to end.
//
// The paper leans on two reliability mechanisms:
//
//  1. the D2-ring index replicates chunk hashes (γ=2), so dedup keeps
//     working when an index node dies;
//  2. Cassandra-style membership changes are seamless — nodes join and
//     leave without downtime.
//
// This example kills an index replica mid-run, grows the ring and
// rebalances, then partitions a ring-mode agent from its entire index
// through the network topology — everything keeps working: the agent
// downgrades to cloud-assisted lookups, recovers when the partition heals,
// and the backup restores byte-identical.
//
//	go run ./examples/reliability
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"efdedup"
	"efdedup/internal/kvstore"
	"efdedup/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	nw := transport.NewMemNetwork()

	// --- 1. A replicated D2-ring index that survives node loss. -------
	fmt.Println("1) replicated index vs node failure")
	nodes := make([]*efdedup.IndexNode, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		node, err := efdedup.NewIndexNode(efdedup.IndexNodeConfig{})
		if err != nil {
			return err
		}
		addrs[i] = fmt.Sprintf("kv-%d", i)
		l, err := nw.Listen(addrs[i])
		if err != nil {
			return err
		}
		node.Serve(l)
		nodes[i] = node
	}
	idx, err := efdedup.NewIndexCluster(efdedup.IndexClusterConfig{
		Members:           addrs,
		ReplicationFactor: 2,
		WriteConsistency:  kvstore.All,
		Network:           nw,
	})
	if err != nil {
		return err
	}
	defer idx.Close()

	keys := make([][]byte, 100)
	vals := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("chunk-hash-%03d", i))
		vals[i] = []byte("meta")
	}
	if err := idx.BatchPut(ctx, keys, vals); err != nil {
		return err
	}
	nodes[1].Close() // kill one replica
	found, err := idx.BatchHas(ctx, keys)
	if err != nil {
		return err
	}
	hits := 0
	for _, ok := range found {
		if ok {
			hits++
		}
	}
	fmt.Printf("   killed kv-1; %d/100 hashes still resolvable (RF=2)\n\n", hits)

	// --- 2. Seamless membership change. --------------------------------
	fmt.Println("2) join a node, rebalance, decommission another")
	newNode, err := efdedup.NewIndexNode(efdedup.IndexNodeConfig{})
	if err != nil {
		return err
	}
	l, err := nw.Listen("kv-new")
	if err != nil {
		return err
	}
	newNode.Serve(l)
	defer newNode.Close()
	if err := idx.AddMember("kv-new"); err != nil {
		return err
	}
	if err := idx.RemoveMember(addrs[1]); err != nil { // drop the dead one
		return err
	}
	if err := idx.Rebalance(ctx); err != nil {
		return err
	}
	fmt.Printf("   ring is now %v; new node holds %d entries after rebalance\n\n",
		idx.Members(), newNode.Len())

	// --- 3. Chaos: partition the agent from its ring mid-backup. --------
	fmt.Println("3) scripted partition vs agent graceful degradation")
	return chaosStage(ctx)
}

// chaosStage runs a fresh ring-mode deployment through a scripted
// partition: the agent loses its whole index mid-run, downgrades to
// cloud-assisted lookups, and recovers once the network heals.
func chaosStage(ctx context.Context) error {
	mem := transport.NewMemNetwork()
	topo := efdedup.NewTopology(efdedup.Link{})
	defer topo.Close()
	ringNW := topo.NetworkFor("ring", mem)
	cloudNW := topo.NetworkFor("cloud", mem)
	edgeNW := topo.NetworkFor("edge", mem)

	cloudSrv, err := efdedup.NewCloudServer(efdedup.CloudServerConfig{})
	if err != nil {
		return err
	}
	defer cloudSrv.Close()
	l, err := cloudNW.Listen("cloud")
	if err != nil {
		return err
	}
	cloudSrv.Serve(l)

	var members []string
	for i := 0; i < 3; i++ {
		node, err := efdedup.NewIndexNode(efdedup.IndexNodeConfig{})
		if err != nil {
			return err
		}
		defer node.Close()
		addr := fmt.Sprintf("ring-kv-%d", i)
		lk, err := ringNW.Listen(addr)
		if err != nil {
			return err
		}
		node.Serve(lk)
		members = append(members, addr)
	}

	idx, err := efdedup.NewIndexCluster(efdedup.IndexClusterConfig{
		Members:           members,
		ReplicationFactor: 2,
		Network:           edgeNW,
		Retry:             efdedup.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, AttemptTimeout: 100 * time.Millisecond, Seed: 1},
		Breaker:           efdedup.BreakerConfig{FailureThreshold: 3, OpenFor: 50 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	defer idx.Close()

	cloud, err := efdedup.DialCloudWithPolicy(ctx, edgeNW, "cloud",
		efdedup.RetryPolicy{MaxAttempts: 3}, efdedup.BreakerConfig{})
	if err != nil {
		return err
	}
	defer cloud.Close()

	a, err := efdedup.NewAgent(efdedup.AgentConfig{
		Name:  "edge-agent",
		Mode:  efdedup.ModeRing,
		Index: idx,
		Cloud: cloud,
	})
	if err != nil {
		return err
	}

	data := make([]byte, 256*1024)
	rand.New(rand.NewSource(7)).Read(data)

	if _, err := a.ProcessBytes(ctx, "healthy", data); err != nil {
		return err
	}
	fmt.Printf("   healthy stream processed; degraded=%v\n", a.Degraded())

	// Script the outage: cut edge↔ring now, heal in 300ms.
	topo.PartitionBoth("edge", "ring")
	topo.Schedule(300*time.Millisecond, func(f *efdedup.Topology) { f.HealAll() })

	rep, err := a.ProcessBytes(ctx, "mid-partition", data[:128*1024])
	if err != nil {
		return fmt.Errorf("stream aborted under partition: %w", err)
	}
	fmt.Printf("   partitioned stream survived: downgrades=%d degraded-lookups=%d (breakers: %v)\n",
		rep.Downgrades, rep.DegradedLookups, breakerSummary(idx.BreakerStates()))

	// Process follow-up streams until the agent walks back up the ladder.
	for i := 0; a.Degraded() && i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := a.ProcessBytes(ctx, fmt.Sprintf("probe-%d", i), data[:16*1024]); err != nil {
			return err
		}
	}
	tot := a.Totals()
	fmt.Printf("   healed: degraded=%v downgrades=%d recoveries=%d\n", a.Degraded(), tot.Downgrades, tot.Recoveries)

	restored, err := cloud.Restore(ctx, "mid-partition")
	if err != nil {
		return err
	}
	if !bytes.Equal(restored, data[:128*1024]) {
		return fmt.Errorf("mid-partition backup restored %d bytes that differ from the input", len(restored))
	}
	fmt.Println("   mid-partition backup restores intact=true")
	return nil
}

// breakerSummary counts breaker states across the ring's addresses.
func breakerSummary(states map[string]efdedup.BreakerState) map[efdedup.BreakerState]int {
	out := make(map[efdedup.BreakerState]int)
	for _, s := range states {
		out[s]++
	}
	return out
}
