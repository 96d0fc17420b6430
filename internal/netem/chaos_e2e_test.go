// Chaos end-to-end test: a full EF-dedup deployment (3-node D2-ring,
// cloud store, ring-mode agent) processes streams while a scripted
// partition cuts the agent off from the ring mid-stream. The pipeline
// must not abort: it downgrades to cloud-assisted lookups, records the
// downgrade, recovers once the partition heals, and every stream —
// including the one processed under the partition — restores
// byte-identical.
package netem_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// slowReader throttles a stream so scripted faults land mid-stream.
type slowReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
	first func() // if set, runs on the first Read, before it reads
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.first != nil {
		s.first()
		s.first = nil
	}
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	n, err := s.r.Read(p)
	if n > 0 {
		time.Sleep(s.delay)
	}
	return n, err
}

// chaosBed is a complete deployment whose agent-side traffic runs through
// a fault-injecting topology: kv nodes at site "ring", cloud at site
// "cloud", and the agent dialing everything from site "edge".
type chaosBed struct {
	fab   *netem.Topology
	agent *agent.Agent
	cloud *cloudstore.Client
	index *kvstore.Cluster
}

func newChaosBed(t *testing.T) *chaosBed {
	t.Helper()
	mem := transport.NewMemNetwork()
	fab := netem.NewTopology(netem.Link{})
	t.Cleanup(fab.Close)
	ringNW := fab.NetworkFor("ring", mem)
	cloudNW := fab.NetworkFor("cloud", mem)
	edgeNW := fab.NetworkFor("edge", mem)

	srv, err := cloudstore.NewServer(cloudstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := cloudNW.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	var members []string
	for i := 0; i < 3; i++ {
		node, err := kvstore.NewNode(kvstore.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		lk, err := ringNW.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(lk)
		t.Cleanup(func() { node.Close() })
		members = append(members, addr)
	}

	// Small timeouts and cool-downs so faults and recoveries play out in
	// test time.
	idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
		Members:           members,
		ReplicationFactor: 2,
		Network:           edgeNW,
		Retry:             retrypolicy.Policy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, AttemptTimeout: 100 * time.Millisecond, Seed: 1},
		Breaker:           retrypolicy.BreakerConfig{FailureThreshold: 3, OpenFor: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })

	cl, err := cloudstore.Dial(context.Background(), edgeNW, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	a, err := agent.New(agent.Config{
		Name:  "chaos-agent",
		Mode:  agent.ModeRing,
		Index: idx,
		Cloud: cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &chaosBed{fab: fab, agent: a, cloud: cl, index: idx}
}

func chaosData(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func TestAgentSurvivesScriptedPartition(t *testing.T) {
	cb := newChaosBed(t)
	ctx := context.Background()

	// Baseline stream through the healthy network.
	pre := chaosData(1, 128*1024)
	if _, err := cb.agent.ProcessBytes(ctx, "pre", pre); err != nil {
		t.Fatalf("healthy baseline stream failed: %v", err)
	}

	// Script the outage: cut the agent off from the whole ring when the
	// chaos stream starts reading, which resets the agent's established
	// index connections, and heal once the stream is done. Both are
	// events of the stream, not of the clock, so every lookup of the
	// stream meets the cut however slowly it runs.
	mid := chaosData(2, 256*1024)
	rep, err := cb.agent.ProcessStream(ctx, "mid-chaos",
		&slowReader{r: bytes.NewReader(mid), chunk: 16 * 1024, delay: 15 * time.Millisecond,
			first: func() { cb.fab.PartitionBoth("edge", "ring") }})
	cb.fab.HealAll()
	if err != nil {
		t.Fatalf("stream aborted under partition: %v", err)
	}
	if rep.Downgrades == 0 || rep.DegradedLookups == 0 {
		t.Fatalf("partition did not register as a downgrade: %+v", rep)
	}
	if !cb.agent.Degraded() {
		t.Fatal("agent not in degraded mode right after the partition stream")
	}

	// After the heal and the breakers' cool-down the agent must
	// recover to ring lookups on its own.
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for i := 0; time.Now().Before(deadline); i++ {
		name := fmt.Sprintf("post-%d", i)
		if _, err := cb.agent.ProcessBytes(ctx, name, chaosData(3, 64*1024)); err != nil {
			t.Fatalf("post-heal stream %s failed: %v", name, err)
		}
		if cb.agent.Totals().Recoveries > 0 {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("agent never recovered after heal: totals %+v", cb.agent.Totals())
	}
	if cb.agent.Degraded() {
		t.Fatal("agent still degraded after recovery")
	}

	// Zero data loss: every stream, including the one processed under the
	// partition, restores byte-identical.
	for name, want := range map[string][]byte{
		"pre":       pre,
		"mid-chaos": mid,
		"post-0":    chaosData(3, 64*1024),
	} {
		got, err := cb.cloud.Restore(ctx, name)
		if err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restore %s differs from input", name)
		}
	}
}
