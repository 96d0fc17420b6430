package agent

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/transport"
)

// testbed wires a memory network with a cloud store and n KV nodes.
type testbed struct {
	nw      *transport.MemNetwork
	cloud   *cloudstore.Server
	kvAddrs []string
	kvNodes []*kvstore.Node
}

func newTestbed(t *testing.T, kvNodes int) *testbed {
	t.Helper()
	tb := &testbed{nw: transport.NewMemNetwork()}
	srv, err := cloudstore.NewServer(cloudstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := tb.nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	tb.cloud = srv

	for i := 0; i < kvNodes; i++ {
		node, err := kvstore.NewNode(kvstore.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		lk, err := tb.nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(lk)
		t.Cleanup(func() { node.Close() })
		tb.kvAddrs = append(tb.kvAddrs, addr)
		tb.kvNodes = append(tb.kvNodes, node)
	}
	return tb
}

func (tb *testbed) cloudClient(t *testing.T) *cloudstore.Client {
	t.Helper()
	cl, err := cloudstore.Dial(context.Background(), tb.nw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func (tb *testbed) ringIndex(t *testing.T, localIdx int) *kvstore.Cluster {
	t.Helper()
	cfg := kvstore.ClusterConfig{
		Members:           tb.kvAddrs,
		ReplicationFactor: 2,
		Network:           tb.nw,
	}
	if localIdx >= 0 {
		cfg.LocalAddr = tb.kvAddrs[localIdx]
	}
	c, err := kvstore.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func ringAgent(t *testing.T, tb *testbed, name string, localIdx int) *Agent {
	t.Helper()
	a, err := New(Config{
		Name:  name,
		Mode:  ModeRing,
		Index: tb.ringIndex(t, localIdx),
		Cloud: tb.cloudClient(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	tb := newTestbed(t, 1)
	cloud := tb.cloudClient(t)
	if _, err := New(Config{Mode: ModeRing, Cloud: cloud}); err == nil {
		t.Error("ring mode without index accepted")
	}
	if _, err := New(Config{Mode: ModeCloudOnly}); err == nil {
		t.Error("missing cloud client accepted")
	}
	if _, err := New(Config{Mode: Mode(99), Cloud: cloud}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// duplicatedData builds a payload whose second half repeats the first.
func duplicatedData(seed int64, half int) []byte {
	rng := rand.New(rand.NewSource(seed))
	first := make([]byte, half)
	rng.Read(first)
	return append(append([]byte{}, first...), first...)
}

func TestRingModeDeduplicatesWithinStream(t *testing.T) {
	tb := newTestbed(t, 3)
	a := ringAgent(t, tb, "agent-0", 0)
	data := duplicatedData(1, 128*1024) // 256 KiB, second half duplicate

	rep, err := a.ProcessBytes(context.Background(), "f1", data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputBytes != int64(len(data)) {
		t.Errorf("InputBytes = %d, want %d", rep.InputBytes, len(data))
	}
	if rep.InputChunks != 32 { // 256 KiB / 8 KiB
		t.Errorf("InputChunks = %d, want 32", rep.InputChunks)
	}
	if rep.DuplicateChunks != 16 {
		t.Errorf("DuplicateChunks = %d, want 16", rep.DuplicateChunks)
	}
	if rep.UploadedChunks != 16 {
		t.Errorf("UploadedChunks = %d, want 16", rep.UploadedChunks)
	}
	if got := rep.DedupRatio(); got < 1.9 || got > 2.1 {
		t.Errorf("DedupRatio = %v, want ≈2", got)
	}
}

func TestRingModeDeduplicatesAcrossAgents(t *testing.T) {
	tb := newTestbed(t, 3)
	a1 := ringAgent(t, tb, "agent-1", 0)
	a2 := ringAgent(t, tb, "agent-2", 1)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 200*1024)
	rng.Read(data)

	ctx := context.Background()
	rep1, err := a1.ProcessBytes(ctx, "a1-file", data)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := a2.ProcessBytes(ctx, "a2-file", data)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.UploadedChunks == 0 {
		t.Fatal("first agent uploaded nothing")
	}
	if rep2.UploadedChunks != 0 {
		t.Errorf("second agent uploaded %d chunks for identical content, want 0", rep2.UploadedChunks)
	}
	if rep2.DuplicateChunks != rep2.InputChunks {
		t.Errorf("second agent found %d/%d duplicates", rep2.DuplicateChunks, rep2.InputChunks)
	}
	// Cloud stores each unique chunk exactly once.
	if st := tb.cloud.Stats(); st.UniqueChunks != rep1.UploadedChunks {
		t.Errorf("cloud UniqueChunks = %d, want %d", st.UniqueChunks, rep1.UploadedChunks)
	}
}

func TestRingModeRestoreIdentity(t *testing.T) {
	tb := newTestbed(t, 3)
	a := ringAgent(t, tb, "agent-0", 0)
	data := duplicatedData(3, 64*1024)
	ctx := context.Background()
	if _, err := a.ProcessBytes(ctx, "file", data); err != nil {
		t.Fatal(err)
	}
	cl := tb.cloudClient(t)
	got, err := cl.Restore(ctx, "file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored file differs from input")
	}
}

func TestCloudAssistedMode(t *testing.T) {
	tb := newTestbed(t, 0)
	newAgent := func(name string) *Agent {
		a, err := New(Config{Name: name, Mode: ModeCloudAssisted, Cloud: tb.cloudClient(t)})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2 := newAgent("ca-1"), newAgent("ca-2")
	data := duplicatedData(11, 96*1024)
	ctx := context.Background()

	rep1, err := a1.ProcessBytes(ctx, "f1", data)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.DuplicateChunks != rep1.InputChunks/2 {
		t.Errorf("in-stream duplicates = %d, want %d", rep1.DuplicateChunks, rep1.InputChunks/2)
	}
	rep2, err := a2.ProcessBytes(ctx, "f2", data)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.UploadedChunks != 0 {
		t.Errorf("cloud-assisted re-upload of known content: %d chunks", rep2.UploadedChunks)
	}
}

func TestCloudOnlyMode(t *testing.T) {
	tb := newTestbed(t, 0)
	a, err := New(Config{Name: "co", Mode: ModeCloudOnly, Cloud: tb.cloudClient(t)})
	if err != nil {
		t.Fatal(err)
	}
	data := duplicatedData(13, 64*1024)
	ctx := context.Background()
	rep, err := a.ProcessBytes(ctx, "raw1", data)
	if err != nil {
		t.Fatal(err)
	}
	// Cloud-only ships everything.
	if rep.UploadedBytes != int64(len(data)) {
		t.Errorf("UploadedBytes = %d, want %d", rep.UploadedBytes, len(data))
	}
	// But the cloud still deduplicates server-side.
	st := tb.cloud.Stats()
	if st.UniqueBytes >= int64(len(data)) {
		t.Errorf("cloud stored %d bytes, want < %d after dedup", st.UniqueBytes, len(data))
	}
	// Restore works.
	cl := tb.cloudClient(t)
	got, err := cl.Restore(ctx, "raw1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cloud-only restore differs")
	}
}

// TestModesAgreeOnCloudContents runs the same pair of streams through all
// three strategies (fresh testbeds) and verifies the cloud ends up with
// the same unique chunk set size — dedup quality is mode-independent for a
// single source; only *where* the work happens differs.
func TestModesAgreeOnCloudContents(t *testing.T) {
	data1 := duplicatedData(17, 80*1024)
	data2 := duplicatedData(17, 80*1024) // identical to data1

	uniqueFor := func(mode Mode) int64 {
		tb := newTestbed(t, 3)
		var a *Agent
		var err error
		switch mode {
		case ModeRing:
			a = ringAgent(t, tb, "x", 0)
		default:
			a, err = New(Config{Name: "x", Mode: mode, Cloud: tb.cloudClient(t)})
			if err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		if _, err := a.ProcessBytes(ctx, "s1", data1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ProcessBytes(ctx, "s2", data2); err != nil {
			t.Fatal(err)
		}
		return tb.cloud.Stats().UniqueChunks
	}

	ring := uniqueFor(ModeRing)
	assisted := uniqueFor(ModeCloudAssisted)
	only := uniqueFor(ModeCloudOnly)
	if ring != assisted || assisted != only {
		t.Fatalf("unique chunks diverge across modes: ring=%d assisted=%d only=%d", ring, assisted, only)
	}
}

func TestTotalsAccumulate(t *testing.T) {
	tb := newTestbed(t, 3)
	a := ringAgent(t, tb, "agent", 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := a.ProcessBytes(ctx, fmt.Sprintf("f%d", i), duplicatedData(int64(i), 32*1024)); err != nil {
			t.Fatal(err)
		}
	}
	tot := a.Totals()
	if tot.InputBytes != 3*64*1024 {
		t.Errorf("Totals.InputBytes = %d, want %d", tot.InputBytes, 3*64*1024)
	}
	if tot.InputChunks != 24 {
		t.Errorf("Totals.InputChunks = %d, want 24", tot.InputChunks)
	}
}

func TestReportThroughputAndRatio(t *testing.T) {
	r := Report{}
	if r.Throughput() != 0 {
		t.Error("zero-duration throughput not 0")
	}
	if r.DedupRatio() != 1 {
		t.Error("empty report ratio not 1")
	}
	r = Report{InputBytes: 100, UploadedBytes: 0}
	if r.DedupRatio() != 100 {
		t.Errorf("all-duplicate ratio = %v, want 100", r.DedupRatio())
	}
}

func TestGearChunkerAgent(t *testing.T) {
	tb := newTestbed(t, 3)
	idx := tb.ringIndex(t, 0)
	a, err := New(Config{
		Name:    "gear-agent",
		Mode:    ModeRing,
		Index:   idx,
		Cloud:   tb.cloudClient(t),
		Chunker: chunk.NewDefaultGearChunker(),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := duplicatedData(23, 128*1024)
	ctx := context.Background()
	rep, err := a.ProcessBytes(ctx, "gear-file", data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateChunks == 0 {
		t.Error("gear agent found no duplicates in self-repeating stream")
	}
	cl := tb.cloudClient(t)
	got, err := cl.Restore(ctx, "gear-file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("gear-chunked restore differs")
	}
}
