package agent

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/metrics"
	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// deadCloudClient returns a client whose server is already gone.
func deadCloudClient(t *testing.T) *cloudstore.Client {
	t.Helper()
	nw := transport.NewMemNetwork()
	srv, err := cloudstore.NewServer(cloudstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	cl, err := cloudstore.Dial(context.Background(), nw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	srv.Close()
	return cl
}

// TestUploadFailureSurfacesAndDrains: with the cloud gone, the async
// uploader must report the failure and the pipeline must terminate
// instead of blocking on its queue.
func TestUploadFailureSurfacesAndDrains(t *testing.T) {
	a, err := New(Config{
		Name:  "doomed",
		Mode:  ModeCloudAssisted,
		Cloud: deadCloudClient(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := duplicatedData(1, 256*1024)
	done := make(chan error, 1)
	go func() {
		_, err := a.ProcessBytes(context.Background(), "f", data)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("processing succeeded against a dead cloud")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline hung on a dead cloud")
	}
}

// deadRingIndex is a cluster whose only member never existed.
func deadRingIndex(t *testing.T, tb *testbed) *kvstore.Cluster {
	t.Helper()
	idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
		Members: []string{"kv-gone"},
		Network: tb.nw,
		Retry:   retrypolicy.Policy{AttemptTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx
}

// TestIndexFailureDowngradesToCloud: ring mode with every index node dead
// degrades to cloud-assisted lookups instead of failing the stream, and
// records the downgrade in the report.
func TestIndexFailureDowngradesToCloud(t *testing.T) {
	tb := newTestbed(t, 1)
	a, err := New(Config{
		Name:  "no-index",
		Mode:  ModeRing,
		Index: deadRingIndex(t, tb),
		Cloud: tb.cloudClient(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.ProcessBytes(context.Background(), "f", duplicatedData(2, 64*1024))
	if err != nil {
		t.Fatalf("degraded processing failed: %v", err)
	}
	if rep.Downgrades == 0 || rep.DegradedLookups == 0 {
		t.Fatalf("downgrade not recorded: %+v", rep)
	}
	// The dead ring refused every fresh chunk's insert; each one counts.
	if rep.UploadedChunks == 0 || rep.IndexInsertFailures != rep.UploadedChunks {
		t.Fatalf("IndexInsertFailures = %d, want one per uploaded chunk (%d)", rep.IndexInsertFailures, rep.UploadedChunks)
	}
	if !a.Degraded() {
		t.Fatal("agent not marked degraded after ring outage")
	}
	// The backup is still restorable despite the dead index.
	got, err := tb.cloudClient(t).Restore(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, duplicatedData(2, 64*1024)) {
		t.Fatal("degraded-mode restore is not byte-identical")
	}
}

// TestIndexFailureSurfacesWhenStrict: StrictRing restores the old
// behaviour — every index node dead fails the stream with an index/lookup
// error.
func TestIndexFailureSurfacesWhenStrict(t *testing.T) {
	tb := newTestbed(t, 1)
	a, err := New(Config{
		Name:       "no-index",
		Mode:       ModeRing,
		Index:      deadRingIndex(t, tb),
		Cloud:      tb.cloudClient(t),
		StrictRing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.ProcessBytes(context.Background(), "f", duplicatedData(2, 64*1024))
	if err == nil {
		t.Fatal("strict processing succeeded without a reachable index")
	}
	if !strings.Contains(err.Error(), "lookup") && !strings.Contains(err.Error(), "index") {
		t.Fatalf("unexpected error kind: %v", err)
	}
}

// gatedReader serves the head of a stream, then runs gate (which may
// block and mutate the world) exactly once before serving the tail — a
// deterministic way to inject a fault mid-stream after the first uploads
// are durable.
type gatedReader struct {
	head, tail *bytes.Reader
	gate       func()
	fired      bool
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.head.Len() > 0 {
		return g.head.Read(p)
	}
	if !g.fired {
		g.fired = true
		g.gate()
	}
	return g.tail.Read(p)
}

// TestUploadFailureAccountingMatchesCloud is the regression test for the
// enqueue-time accounting bug: UploadedChunks/UploadedBytes used to be
// counted when a batch was *queued*, so a stream whose uploader died
// mid-flight reported chunks the cloud never received. The fixed pipeline
// counts on the cloud's acknowledgement, so even for an aborted stream
// the report matches the store's contents exactly. It also checks the two
// companion invariants: an aborted stream records no manifest, and the
// ring index never references a chunk the cloud lacks.
func TestUploadFailureAccountingMatchesCloud(t *testing.T) {
	ctx := context.Background()
	nw := transport.NewMemNetwork()
	fabric := netem.NewTopology(netem.Link{})
	defer fabric.Close()
	fnw := fabric.NetworkFor("edge", nw)

	cloudSrv, err := cloudstore.NewServer(cloudstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := fnw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	cloudSrv.Serve(cl)
	t.Cleanup(func() { cloudSrv.Close() })

	node, err := kvstore.NewNode(kvstore.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	kl, err := fnw.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(kl)
	t.Cleanup(func() { node.Close() })

	idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
		Members:           []string{"kv-0"},
		ReplicationFactor: 1,
		Network:           fnw,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })

	cloud, err := cloudstore.DialWithPolicy(ctx, fnw, "cloud",
		retrypolicy.Policy{
			MaxAttempts:    2,
			BaseDelay:      5 * time.Millisecond,
			AttemptTimeout: 500 * time.Millisecond,
		}, retrypolicy.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })

	a, err := New(Config{
		Name:        "acct",
		Mode:        ModeRing,
		Index:       idx,
		Cloud:       cloud,
		LookupBatch: 8,
		UploadBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 64 unique 8 KiB chunks; the head covers exactly the first 16, i.e.
	// two full upload batches.
	data := make([]byte, 64*chunk.DefaultFixedSize)
	rand.New(rand.NewSource(42)).Read(data)
	const headChunks = 16
	head := headChunks * chunk.DefaultFixedSize
	// The fault must fire only after the *client* has acknowledged both
	// queued batches — waiting on the server's stats instead would race:
	// the store can complete while the ack is still on the wire, and
	// resetting the connection then drops an ack for chunks the cloud
	// holds. The agent's uploaded-chunks counter increments exactly on
	// acknowledgement.
	acked := metrics.Default().Counter("agent_uploaded_chunks_total", "mode", ModeRing.String())
	base := acked.Value()
	gr := &gatedReader{
		head: bytes.NewReader(data[:head]),
		tail: bytes.NewReader(data[head:]),
		gate: func() {
			deadline := time.Now().Add(5 * time.Second)
			for acked.Value() < base+headChunks {
				if time.Now().After(deadline) {
					t.Error("uploader never acknowledged the first two batches")
					break
				}
				time.Sleep(time.Millisecond)
			}
			fabric.Isolate("cloud")
		},
	}

	rep, err := a.ProcessStream(ctx, "doomed", gr)
	if err == nil {
		t.Fatal("stream succeeded with the cloud isolated mid-upload")
	}

	st := cloudSrv.Stats()
	if rep.UploadedChunks != st.UniqueChunks {
		t.Errorf("Report.UploadedChunks = %d, cloud holds %d", rep.UploadedChunks, st.UniqueChunks)
	}
	if rep.UploadedBytes != st.UniqueBytes {
		t.Errorf("Report.UploadedBytes = %d, cloud holds %d bytes", rep.UploadedBytes, st.UniqueBytes)
	}
	if rep.UploadedChunks == 0 {
		t.Error("no chunks acknowledged before the fault; the gate fired too early")
	}
	if st.Manifests != 0 {
		t.Errorf("aborted stream recorded %d manifests, want 0", st.Manifests)
	}

	// The ring index may only reference chunks the cloud durably holds.
	fc, err := chunk.NewFixedChunker(chunk.DefaultFixedSize)
	if err != nil {
		t.Fatal(err)
	}
	var ids []chunk.ID
	if err := fc.Split(bytes.NewReader(data), func(c chunk.Chunk) error {
		ids = append(ids, c.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, len(ids))
	for i := range ids {
		id := ids[i]
		keys[i] = id[:]
	}
	indexed, err := idx.BatchHas(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	fabric.Restore("cloud")
	probe, err := cloudstore.Dial(ctx, fnw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.Close() })
	held, err := probe.BatchHas(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	var indexedCount int64
	for i := range ids {
		if indexed[i] {
			indexedCount++
			if !held[i] {
				t.Errorf("index references chunk %d (%x…) absent from cloud", i, ids[i][:4])
			}
		}
	}
	if indexedCount != rep.UploadedChunks {
		t.Errorf("index holds %d of the stream's chunks, want %d (the acknowledged uploads)",
			indexedCount, rep.UploadedChunks)
	}
}

// TestContextCancellationStopsProcessing: a cancelled context aborts the
// stream promptly.
func TestContextCancellationStopsProcessing(t *testing.T) {
	tb := newTestbed(t, 3)
	a := ringAgent(t, tb, "cancelled", 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := a.ProcessBytes(ctx, "f", duplicatedData(3, 256*1024))
	if err == nil {
		t.Fatal("processing succeeded with a cancelled context")
	}
}

// TestEmptyStream: zero-byte input is a valid no-op stream.
func TestEmptyStream(t *testing.T) {
	tb := newTestbed(t, 3)
	a := ringAgent(t, tb, "empty", 0)
	rep, err := a.ProcessBytes(context.Background(), "empty-file", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputBytes != 0 || rep.UploadedBytes != 0 {
		t.Fatalf("empty stream produced bytes: %+v", rep)
	}
	// Its manifest restores to an empty stream.
	cl := tb.cloudClient(t)
	got, err := cl.Restore(context.Background(), "empty-file")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("restored %d bytes for empty stream", len(got))
	}
}
