package agent

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/metrics"
)

// freshData is n unique fixed-size chunks.
func freshData(seed int64, n int) []byte {
	data := make([]byte, n*chunk.DefaultFixedSize)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// cloudCalls reads how many calls of each cloud method this process's
// clients have issued.
func cloudCalls() map[string]int64 {
	out := make(map[string]int64)
	for _, m := range []string{"cloud.batchupload", "cloud.batchhas", "cloud.commit"} {
		out[m] = metrics.Default().DurationHistogram("cloud_client_rpc_seconds", "method", m).Snapshot().Count
	}
	return out
}

// TestStreamEndsInOneCommit counts the cloud RPCs a stream costs. Full
// batches go out as they fill; the tail and the manifest share one
// commit, so a stream whose fresh chunks fit one batch costs one RPC in
// ring mode. Both edge modes end streams the same way.
func TestStreamEndsInOneCommit(t *testing.T) {
	for _, mode := range []Mode{ModeRing, ModeCloudAssisted} {
		for _, c := range []struct {
			chunks, uploads int
		}{{40, 0}, {63, 0}, {130, 2}} {
			tb := newTestbed(t, 3)
			cfg := Config{Name: "counted", Mode: mode, Cloud: tb.cloudClient(t)}
			if mode == ModeRing {
				cfg.Index = tb.ringIndex(t, 0)
			}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := freshData(int64(c.chunks), c.chunks)
			before := cloudCalls()
			rep, err := a.ProcessBytes(context.Background(), "f", data)
			if err != nil {
				t.Fatal(err)
			}
			after := cloudCalls()
			lookups := int64(0)
			if mode == ModeCloudAssisted {
				lookups = int64((c.chunks + DefaultLookupBatch - 1) / DefaultLookupBatch)
			}
			for m, want := range map[string]int64{"cloud.batchupload": int64(c.uploads), "cloud.commit": 1, "cloud.batchhas": lookups} {
				if got := after[m] - before[m]; got != want {
					t.Errorf("%s, %d fresh chunks: %d %s calls, want %d", mode, c.chunks, got, m, want)
				}
			}
			if rep.UploadedChunks != int64(c.chunks) || rep.UploadedBytes != int64(len(data)) {
				t.Errorf("%s, %d fresh chunks: report uploaded %d chunks / %d bytes", mode, c.chunks, rep.UploadedChunks, rep.UploadedBytes)
			}
			if st := tb.cloud.Stats(); st.UniqueChunks != rep.UploadedChunks || st.Manifests != 1 {
				t.Errorf("%s, %d fresh chunks: cloud holds %d chunks and %d manifests", mode, c.chunks, st.UniqueChunks, st.Manifests)
			}
			got, err := tb.cloudClient(t).Restore(context.Background(), "f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s, %d fresh chunks: restore differs: %v", mode, c.chunks, err)
			}
		}
	}
}

// TestCommitFailureLeavesNoTrace fails the commit after the cloud stored
// the tail: its manifest names a chunk the ring index claims but the
// cloud never stored. The stream fails with no manifest, the report
// counts only the full batch the cloud acked, and the ring index names
// none of the tail's chunks.
func TestCommitFailureLeavesNoTrace(t *testing.T) {
	tb := newTestbed(t, 3)
	dir := t.TempDir()
	srv, err := cloudstore.NewServer(cloudstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := tb.nw.Listen("disk-cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	cloud, err := cloudstore.Dial(context.Background(), tb.nw, "disk-cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })

	idx := tb.ringIndex(t, 0)
	a, err := New(Config{Name: "doomed", Mode: ModeRing, Index: idx, Cloud: cloud})
	if err != nil {
		t.Fatal(err)
	}
	const fresh = DefaultUploadBatch + 6 // one full batch and a tail
	data := freshData(5, fresh)
	// The stream ends in a chunk the index claims and the cloud lacks.
	ghost := freshData(6, 1)
	ghostID := chunk.Sum(ghost)
	if err := idx.BatchPut(context.Background(), [][]byte{ghostID[:]}, [][]byte{[]byte("elsewhere")}); err != nil {
		t.Fatal(err)
	}
	rep, err := a.ProcessBytes(context.Background(), "f", append(data[:len(data):len(data)], ghost...))
	if !errors.Is(err, cloudstore.ErrNotFound) {
		t.Fatalf("stream = %v, want its commit's ErrNotFound", err)
	}
	if rep.UploadedChunks != DefaultUploadBatch || rep.UploadedBytes != DefaultUploadBatch*chunk.DefaultFixedSize {
		t.Errorf("report uploaded %d chunks / %d bytes, want only the acked full batch", rep.UploadedChunks, rep.UploadedBytes)
	}
	if st := srv.Stats(); st.Manifests != 0 {
		t.Errorf("failed commit recorded %d manifests", st.Manifests)
	}
	if _, err := cloud.GetRecipe(context.Background(), "f"); !errors.Is(err, cloudstore.ErrNotFound) {
		t.Errorf("GetRecipe after a failed commit = %v, want ErrNotFound", err)
	}
	keys := make([][]byte, fresh)
	for i := range keys {
		id := chunk.Sum(data[i*chunk.DefaultFixedSize : (i+1)*chunk.DefaultFixedSize])
		keys[i] = id[:]
	}
	indexed, err := idx.BatchHas(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range indexed {
		if want := i < DefaultUploadBatch; ok != want {
			t.Errorf("index entry for chunk %d = %v, want %v", i, ok, want)
		}
	}
}
