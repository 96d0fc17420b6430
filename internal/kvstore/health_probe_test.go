package kvstore

import (
	"context"
	"testing"
	"time"

	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// Failure-detector transition tests under injected network faults. The
// detector is the per-replica circuit breaker, observed through the
// lookups BatchHas routes: a node that stalls but still answers inside
// the per-attempt timeout must keep serving lookups, a node stalled past
// it must be routed around once its breaker trips, and recovery must
// route lookups back.

// probeBed builds a two-node ring behind a fault-injecting topology and a
// coordinator that prefers kv-0, the node under test, reaching both
// through it. kv-1 is the backup lookups fall back to.
func probeBed(t *testing.T, faults netem.Faults, attemptTimeout time.Duration) (*Cluster, *netem.Topology, string) {
	t.Helper()
	mem := transport.NewMemNetwork()
	fab := netem.NewTopology(netem.Link{})
	fab.SetFaults(faults)
	t.Cleanup(fab.Close)
	ringNW := fab.NetworkFor("ring", mem)
	edgeNW := fab.NetworkFor("edge", mem)

	members := []string{"kv-0", "kv-1"}
	for _, addr := range members {
		node, err := NewNode(NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ringNW.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(l)
		t.Cleanup(func() { node.Close() })
	}

	c, err := NewCluster(ClusterConfig{
		Members:           members,
		ReplicationFactor: 2,
		LocalAddr:         members[0],
		Network:           edgeNW,
		Retry:             retrypolicy.Policy{MaxAttempts: 1, AttemptTimeout: attemptTimeout},
		Breaker:           retrypolicy.BreakerConfig{FailureThreshold: 2, OpenFor: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fab, members[0]
}

// routedLocally runs one BatchHas and reports whether its lookups went to
// the local replica, which they do unless the detector skips it.
func routedLocally(c *Cluster) (bool, error) {
	before, _ := c.LookupStats()
	_, err := c.BatchHas(context.Background(), lookupKeys(8))
	after, _ := c.LookupStats()
	return after > before, err
}

func TestProbeToleratesStallBelowPingTimeout(t *testing.T) {
	// Every request write stalls 30ms — a slow node, not a dead one. With
	// a 500ms per-attempt timeout every call answers, the breaker never
	// trips and lookups stay local.
	c, _, addr := probeBed(t, netem.Faults{
		Seed:      1,
		StallProb: 1,
		StallFor:  30 * time.Millisecond,
	}, 500*time.Millisecond)

	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		local, err := routedLocally(c)
		if err != nil {
			t.Fatalf("BatchHas against a slow node: %v", err)
		}
		if !local || c.skip(addr) {
			t.Fatal("slow node routed around before the per-attempt timeout elapsed")
		}
	}
}

func TestProbeDeclaresDeadPastPingTimeout(t *testing.T) {
	// Every request write stalls 300ms against a 50ms per-attempt
	// timeout: no call to the node can answer in time, so its breaker
	// trips and lookups stop going to it.
	c, _, addr := probeBed(t, netem.Faults{
		Seed:      1,
		StallProb: 1,
		StallFor:  300 * time.Millisecond,
	}, 50*time.Millisecond)

	deadline := time.Now().Add(10 * time.Second)
	for !c.skip(addr) {
		if !time.Now().Before(deadline) {
			t.Fatal("stalled node never declared dead")
		}
		// The backup stalls too, so these lookups fail; only the routing
		// verdict matters here.
		if _, err := routedLocally(c); err == nil {
			t.Fatal("BatchHas succeeded with every call stalled past its timeout")
		}
	}
	if local, _ := routedLocally(c); local {
		t.Fatal("lookups still routed to the node after its breaker opened")
	}
}

func TestProbeRecoversAfterIsolation(t *testing.T) {
	c, fab, addr := probeBed(t, netem.Faults{}, 100*time.Millisecond)

	waitRouted := func(wantLocal bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			local, err := routedLocally(c)
			if err != nil {
				t.Fatalf("BatchHas while waiting for %s: %v", what, err)
			}
			if local == wantLocal {
				return
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("routing never observed %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitRouted(true, "initial liveness")
	fab.Isolate(addr)
	waitRouted(false, "the isolation")
	fab.Restore(addr)
	waitRouted(true, "the recovery")
}
