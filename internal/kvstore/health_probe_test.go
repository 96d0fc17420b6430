package kvstore

import (
	"testing"
	"time"

	"efdedup/internal/faultnet"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// Failure-detector transition tests under injected network faults: a slow
// node must not be declared dead while its probes still answer inside
// PingTimeout, a node stalled past PingTimeout must be, and recovery must
// flip the detector back.

// probeBed builds one storage node behind a chaos fabric and a
// heartbeating cluster probing it through that fabric.
func probeBed(t *testing.T, cfg faultnet.Config, pingTimeout time.Duration) (*Cluster, *faultnet.Fabric, string) {
	t.Helper()
	mem := transport.NewMemNetwork()
	fab := faultnet.NewFabric(cfg)
	t.Cleanup(fab.Close)
	ringNW := fab.NetworkFor("ring", mem)
	edgeNW := fab.NetworkFor("edge", mem)

	node, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const addr = "kv-0"
	l, err := ringNW.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(l)
	t.Cleanup(func() { node.Close() })

	c, err := NewCluster(ClusterConfig{
		Members:           []string{addr},
		ReplicationFactor: 1,
		Network:           edgeNW,
		HeartbeatInterval: 20 * time.Millisecond,
		PingTimeout:       pingTimeout,
		Retry:             retrypolicy.Policy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fab, addr
}

func TestProbeToleratesStallBelowPingTimeout(t *testing.T) {
	// Every probe write stalls 30ms — a slow node, not a dead one. With
	// PingTimeout at 500ms the detector must keep reporting it alive.
	c, _, addr := probeBed(t, faultnet.Config{
		Seed:      1,
		StallProb: 1,
		StallFor:  30 * time.Millisecond,
	}, 500*time.Millisecond)

	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if c.isDown(addr) {
			t.Fatal("slow node declared dead before PingTimeout elapsed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestProbeDeclaresDeadPastPingTimeout(t *testing.T) {
	// Every probe write stalls 300ms against a 50ms PingTimeout: the node
	// cannot answer a probe in time and must be marked down.
	c, _, addr := probeBed(t, faultnet.Config{
		Seed:      1,
		StallProb: 1,
		StallFor:  300 * time.Millisecond,
	}, 50*time.Millisecond)

	deadline := time.Now().Add(10 * time.Second)
	for !c.isDown(addr) {
		if !time.Now().Before(deadline) {
			t.Fatal("stalled node never declared dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestProbeRecoversAfterIsolation(t *testing.T) {
	c, fab, addr := probeBed(t, faultnet.Config{Seed: 1}, 100*time.Millisecond)

	waitDown := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for c.isDown(addr) != want {
			if !time.Now().Before(deadline) {
				t.Fatalf("detector never observed %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitDown(false, "initial liveness")
	fab.Isolate(addr)
	waitDown(true, "the isolation")
	fab.Restore(addr)
	waitDown(false, "the recovery")
}
