package agent

import (
	"bytes"
	"context"
	"math/rand"
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

// TestPipelineEquivalenceAcrossConcurrency is the ordering property of
// the staged pipeline: HashWorkers and LookupInflight change wall-clock
// overlap, never results. Every combination must produce a manifest
// identical to a sequential SplitBytes pass and a Report identical to
// every other combination's (modulo Duration).
func TestPipelineEquivalenceAcrossConcurrency(t *testing.T) {
	// Random payload with a duplicated half so intra-stream dedup, index
	// dedup and fresh uploads are all exercised.
	data := duplicatedData(77, 384*1024+13)

	g := chunk.NewDefaultGearChunker()
	want, err := chunk.SplitBytes(g, data)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := make([]chunk.ID, len(want))
	for i, c := range want {
		wantIDs[i] = c.ID
	}

	var baseline *Report
	for _, hw := range []int{1, 4} {
		for _, li := range []int{1, 4} {
			// A fresh testbed per combination: shared cloud or ring state
			// would make later runs see earlier runs' chunks.
			tb := newTestbed(t, 3)
			a, err := New(Config{
				Name:           "prop",
				Mode:           ModeRing,
				Chunker:        chunk.NewDefaultGearChunker(),
				Index:          tb.ringIndex(t, 0),
				Cloud:          tb.cloudClient(t),
				LookupBatch:    8,
				UploadBatch:    16,
				HashWorkers:    hw,
				LookupInflight: li,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.ProcessBytes(context.Background(), "f", data)
			if err != nil {
				t.Fatalf("hw=%d li=%d: %v", hw, li, err)
			}

			cl := tb.cloudClient(t)
			manifest, err := cl.GetManifest(context.Background(), "f")
			if err != nil {
				t.Fatal(err)
			}
			if len(manifest) != len(wantIDs) {
				t.Fatalf("hw=%d li=%d: manifest has %d chunks, sequential split %d",
					hw, li, len(manifest), len(wantIDs))
			}
			for i := range wantIDs {
				if manifest[i] != wantIDs[i] {
					t.Fatalf("hw=%d li=%d: manifest[%d] diverges from sequential split", hw, li, i)
				}
			}
			got, err := cl.Restore(context.Background(), "f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("hw=%d li=%d: restore is not byte-identical", hw, li)
			}

			rep.Duration = 0 // the only field allowed to differ
			if baseline == nil {
				r := rep
				baseline = &r
			} else if rep != *baseline {
				t.Fatalf("hw=%d li=%d: report diverges:\n got %+v\nwant %+v", hw, li, rep, *baseline)
			}
		}
	}
	if baseline.UploadedChunks == 0 || baseline.DuplicateChunks == 0 {
		t.Fatalf("test exercised nothing: %+v", *baseline)
	}
}

// TestMidStreamRingOutageWithInflightLookups isolates every ring node
// while the pipeline has lookup batches in flight. The downgrade ladder
// must absorb the outage — concurrent in-flight batches and all — and
// the stream must complete over cloud-assisted lookups with a
// byte-identical backup.
func TestMidStreamRingOutageWithInflightLookups(t *testing.T) {
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

	kvAddrs := []string{"kv-0", "kv-1"}
	for _, addr := range kvAddrs {
		node, err := kvstore.NewNode(kvstore.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		kl, err := fnw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(kl)
		t.Cleanup(func() { node.Close() })
	}
	idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
		Members:           kvAddrs,
		ReplicationFactor: 2,
		Network:           fnw,
		Retry:             retrypolicy.Policy{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond, AttemptTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })

	cloud, err := cloudstore.Dial(ctx, fnw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })

	a, err := New(Config{
		Name:           "inflight",
		Mode:           ModeRing,
		Index:          idx,
		Cloud:          cloud,
		LookupBatch:    4,
		UploadBatch:    8,
		HashWorkers:    4,
		LookupInflight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 128 unique fixed-size chunks; the ring dies once the first 32 are
	// acknowledged by the cloud, i.e. with the stream (and several
	// 4-chunk lookup batches) still in flight.
	data := make([]byte, 128*chunk.DefaultFixedSize)
	rand.New(rand.NewSource(21)).Read(data)
	const headChunks = 32
	head := headChunks * chunk.DefaultFixedSize
	acked := metrics.Default().Counter("agent_uploaded_chunks_total", "mode", ModeRing.String())
	base := acked.Value()
	gr := &gatedReader{
		head: bytes.NewReader(data[:head]),
		tail: bytes.NewReader(data[head:]),
		gate: func() {
			deadline := time.Now().Add(5 * time.Second)
			for acked.Value() < base+headChunks {
				if time.Now().After(deadline) {
					t.Error("uploader never acknowledged the head chunks")
					break
				}
				time.Sleep(time.Millisecond)
			}
			for _, addr := range kvAddrs {
				fabric.Isolate(addr)
			}
		},
	}

	rep, err := a.ProcessStream(ctx, "f", gr)
	if err != nil {
		t.Fatalf("stream failed despite the downgrade ladder: %v", err)
	}
	if rep.Downgrades == 0 || rep.DegradedLookups == 0 {
		t.Fatalf("ring outage not recorded as a downgrade: %+v", rep)
	}
	if !a.Degraded() {
		t.Fatal("agent not marked degraded after mid-stream ring outage")
	}
	if rep.InputChunks != 128 || rep.UploadedChunks != 128 {
		t.Fatalf("chunk accounting off: %+v", rep)
	}

	got, err := cloud.Restore(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded-mode restore is not byte-identical")
	}
}

// TestPipelineQueuesAreBuffered: every queue between the stream-ordered
// stages has slack, so one slow consumer does not stall every stage
// upstream of it; an unbuffered queue turns each handoff into a
// rendezvous.
func TestPipelineQueuesAreBuffered(t *testing.T) {
	tb := newTestbed(t, 0)
	a, err := New(Config{Name: "queues", Mode: ModeCloudOnly, Cloud: tb.cloudClient(t)})
	if err != nil {
		t.Fatal(err)
	}
	p := a.newPipeline(context.Background(), "queues")
	defer p.finish(nil)
	for name, c := range map[string]int{
		"hashOrder":   cap(p.hashOrder),
		"lookupOrder": cap(p.lookupOrder),
		"uploads":     cap(p.uploads),
	} {
		if c == 0 {
			t.Errorf("pipeline queue %s is unbuffered", name)
		}
	}
}
