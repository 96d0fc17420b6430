// Durability chaos test: a D2-ring of WAL-backed index nodes loses a
// replica to an ungraceful kill mid-stream (with a torn record injected
// into its log, as a real crash leaves), restarts it from disk, repairs
// the ring with anti-entropy, then grows the ring by a member — and must
// come out of all of it with zero acknowledged chunks lost: re-processing
// every payload finds all chunks already indexed, and every stream
// restores from the cloud byte-identical.
package netem_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// durableBed is a chaosBed whose index nodes persist to disk and can be
// killed and restarted in place.
type durableBed struct {
	fab    *netem.Topology
	agent  *agent.Agent
	cloud  *cloudstore.Client
	index  *kvstore.Cluster
	ringNW *netem.Network
	dir    string

	nodes map[string]*kvstore.Node
}

// durableNodeConfig builds the NodeConfig for addr: always-fsync WAL and
// a small snapshot threshold so snapshots actually happen in test time.
func (db *durableBed) durableNodeConfig(addr string) kvstore.NodeConfig {
	return kvstore.NodeConfig{
		WALPath:       filepath.Join(db.dir, addr+".wal"),
		WALSync:       kvstore.SyncAlways,
		SnapshotBytes: 16 << 10,
	}
}

// startNode starts (or restarts) a durable node on addr.
func (db *durableBed) startNode(t *testing.T, addr string) *kvstore.Node {
	t.Helper()
	node, err := kvstore.NewNode(db.durableNodeConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	l, err := db.ringNW.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(l)
	db.nodes[addr] = node
	return node
}

func newDurableBed(t *testing.T) *durableBed {
	t.Helper()
	mem := transport.NewMemNetwork()
	fab := netem.NewTopology(netem.Link{})
	t.Cleanup(fab.Close)

	db := &durableBed{
		fab:    fab,
		ringNW: fab.NetworkFor("ring", mem),
		dir:    t.TempDir(),
		nodes:  make(map[string]*kvstore.Node),
	}
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
		addr := fmt.Sprintf("kv-%d", i)
		db.startNode(t, addr)
		members = append(members, addr)
	}
	t.Cleanup(func() {
		for _, n := range db.nodes {
			n.Close()
		}
	})

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
	db.index = idx

	cl, err := cloudstore.Dial(context.Background(), edgeNW, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	db.cloud = cl

	a, err := agent.New(agent.Config{
		Name:  "durable-agent",
		Mode:  agent.ModeRing,
		Index: idx,
		Cloud: cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.agent = a
	return db
}

// tearWAL appends a half-written record to a killed node's log, the exact
// artifact a crash mid-append leaves on disk.
func tearWAL(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Header claims 64 payload bytes; only 5 follow.
	if _, err := f.Write([]byte{0, 0, 0, 64, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// repairUntilConverged runs anti-entropy rounds until one proves every
// pair equal.
func repairUntilConverged(t *testing.T, c *kvstore.Cluster) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		stats, err := c.RepairOnce(ctx)
		cancel()
		if err == nil && stats.Converged() {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("ring never converged: stats %+v err %v", stats, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDurableRingSurvivesKillRestartRejoin(t *testing.T) {
	db := newDurableBed(t)
	ctx := context.Background()
	payloads := map[string][]byte{}

	// Healthy baseline.
	payloads["pre"] = chaosData(11, 128*1024)
	if _, err := db.agent.ProcessBytes(ctx, "pre", payloads["pre"]); err != nil {
		t.Fatalf("baseline stream: %v", err)
	}

	// Kill one replica ungracefully while a throttled stream is mid-flight.
	const victim = "kv-1"
	time.AfterFunc(30*time.Millisecond, func() { db.nodes[victim].Kill() })
	payloads["mid-kill"] = chaosData(12, 256*1024)
	rep, err := db.agent.ProcessStream(ctx, "mid-kill",
		&slowReader{r: bytes.NewReader(payloads["mid-kill"]), chunk: 16 * 1024, delay: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("stream aborted by replica kill: %v", err)
	}
	if rep.InputChunks == 0 {
		t.Fatalf("empty report: %+v", rep)
	}

	// The crash left a torn half-record on the victim's log.
	tearWAL(t, filepath.Join(db.dir, victim+".wal"))

	// A second stream runs against the degraded ring (RF=2 keeps every key
	// answerable by the surviving replica).
	payloads["while-down"] = chaosData(13, 128*1024)
	if _, err := db.agent.ProcessBytes(ctx, "while-down", payloads["while-down"]); err != nil {
		t.Fatalf("stream during outage: %v", err)
	}

	// Restart the victim from its own disk: snapshot + WAL suffix, torn
	// tail classified and truncated.
	restarted := db.startNode(t, victim)
	if rs := restarted.RecoveryStats(); rs.TornBytes == 0 {
		t.Fatalf("injected torn tail not detected: %+v", rs)
	}

	// Anti-entropy reconciles what the victim missed while down.
	repairUntilConverged(t, db.index)

	// Grow the ring mid-run: a fresh durable member joins, placement is
	// rebalanced, and repair proves convergence over the new topology.
	const joiner = "kv-3"
	db.startNode(t, joiner)
	if err := db.index.AddMember(joiner); err != nil {
		t.Fatal(err)
	}
	if err := db.index.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance after join: %v", err)
	}
	repairUntilConverged(t, db.index)

	// Zero acknowledged chunks lost: re-processing every payload under a
	// new name must find every chunk already indexed — an uploaded chunk
	// here means the ring forgot something it acknowledged.
	for name, data := range payloads {
		rep, err := db.agent.ProcessBytes(ctx, name+"-replay", data)
		if err != nil {
			t.Fatalf("re-process %s: %v", name, err)
		}
		if rep.UploadedChunks != 0 || rep.DuplicateChunks != rep.InputChunks {
			t.Fatalf("%s lost acknowledged chunks: %+v", name, rep)
		}
	}

	// And the cloud is consistent: every stream restores byte-identical.
	for name, want := range payloads {
		got, err := db.cloud.Restore(ctx, name)
		if err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restore %s differs from input", name)
		}
	}
}
