package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"efdedup/internal/chunk"
	"efdedup/internal/transport"
)

// startCloud runs a cloud store on a fresh memory network and returns a
// connected client.
func startCloud(t *testing.T, cfg Config) (*Client, *Server) {
	t.Helper()
	nw := transport.NewMemNetwork()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(context.Background(), nw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, srv
}

func mkChunk(data string) chunk.Chunk {
	b := []byte(data)
	return chunk.Chunk{ID: chunk.Sum(b), Data: b}
}

// upload1 stores one chunk and reports whether the cloud had not seen it.
func upload1(t *testing.T, cl *Client, ck chunk.Chunk) bool {
	t.Helper()
	stored, err := cl.BatchUpload(context.Background(), []chunk.Chunk{ck})
	if err != nil {
		t.Fatal(err)
	}
	return stored == 1
}

func TestUploadDeduplicates(t *testing.T) {
	cl, srv := startCloud(t, Config{})

	if !upload1(t, cl, mkChunk("hello")) {
		t.Fatal("first upload reported duplicate")
	}
	if upload1(t, cl, mkChunk("hello")) {
		t.Fatal("duplicate upload reported fresh")
	}
	st := srv.Stats()
	if st.UniqueChunks != 1 {
		t.Fatalf("UniqueChunks = %d, want 1", st.UniqueChunks)
	}
	if st.LogicalBytes != 10 {
		t.Fatalf("LogicalBytes = %d, want 10 (two 5-byte uploads)", st.LogicalBytes)
	}
	if st.UniqueBytes != 5 {
		t.Fatalf("UniqueBytes = %d, want 5", st.UniqueBytes)
	}
}

func TestUploadRejectsCorruptChunk(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	bad := mkChunk("data")
	bad.Data = []byte("DATA") // ID no longer matches
	if _, err := cl.BatchUpload(context.Background(), []chunk.Chunk{bad}); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
}

func TestBatchUploadAndHas(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	ctx := context.Background()

	chunks := []chunk.Chunk{mkChunk("a"), mkChunk("b"), mkChunk("a")}
	stored, err := cl.BatchUpload(ctx, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 2 {
		t.Fatalf("BatchUpload stored %d, want 2 (one in-batch duplicate)", stored)
	}

	has, err := cl.BatchHas(ctx, []chunk.ID{
		chunk.Sum([]byte("a")), chunk.Sum([]byte("c")), chunk.Sum([]byte("b")),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if has[i] != want[i] {
			t.Errorf("BatchHas[%d] = %v, want %v", i, has[i], want[i])
		}
	}
}

func TestUploadRawDeduplicatesServerSide(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()

	// Two copies of the same content: the second raw upload stores 0 new
	// chunks.
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	n1, err := cl.UploadRaw(ctx, "file1", data)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := cl.UploadRaw(ctx, "file2", data)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("first raw upload stored nothing")
	}
	if n2 != 0 {
		t.Fatalf("second identical raw upload stored %d chunks, want 0", n2)
	}
	st := srv.Stats()
	if st.RawUploads != 2 {
		t.Fatalf("RawUploads = %d, want 2", st.RawUploads)
	}
	if st.LogicalBytes != int64(2*len(data)) {
		t.Fatalf("LogicalBytes = %d, want %d", st.LogicalBytes, 2*len(data))
	}

	// Both manifests restore to the original content.
	for _, name := range []string{"file1", "file2"} {
		got, err := cl.Restore(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("restore %s differs from original", name)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	ctx := context.Background()

	c1, c2 := mkChunk("part one "), mkChunk("part two")
	if _, err := cl.BatchUpload(ctx, []chunk.Chunk{c1, c2}); err != nil {
		t.Fatal(err)
	}
	ids := []chunk.ID{c1.ID, c2.ID, c1.ID}
	if err := cl.PutManifest(ctx, "doc", ids); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetManifest(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != c1.ID || got[1] != c2.ID || got[2] != c1.ID {
		t.Fatalf("GetManifest = %v", got)
	}
	restored, err := cl.Restore(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if string(restored) != "part one part twopart one " {
		t.Fatalf("Restore = %q", restored)
	}
}

// TestCommitStoresTailAndManifest ends a stream the way an agent does:
// one chunk uploaded in a full batch earlier, the rest in the commit's
// tail. The tail is stored and counted like a batch upload, and the
// manifest restores.
func TestCommitStoresTailAndManifest(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()

	early, t1, t2 := mkChunk("uploaded earlier "), mkChunk("tail one "), mkChunk("tail two")
	upload1(t, cl, early)
	ids := []chunk.ID{early.ID, t1.ID, t2.ID, t1.ID}
	stored, err := cl.Commit(ctx, "stream", ids, []chunk.Chunk{t1, t2, t1})
	if err != nil {
		t.Fatal(err)
	}
	if stored != 2 {
		t.Fatalf("Commit stored %d, want 2 (one in-tail duplicate)", stored)
	}
	restored, err := cl.Restore(ctx, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if string(restored) != "uploaded earlier tail one tail twotail one " {
		t.Fatalf("Restore = %q", restored)
	}
	st := srv.Stats()
	if st.UniqueChunks != 3 || st.Manifests != 1 || st.LogicalBytes != int64(len(early.Data)+2*len(t1.Data)+len(t2.Data)) {
		t.Fatalf("stats after commit: %+v", st)
	}
	// A repeated commit stores nothing new and replaces the manifest.
	if stored, err := cl.Commit(ctx, "stream", ids[:1], []chunk.Chunk{t1}); err != nil || stored != 0 {
		t.Fatalf("repeated Commit = %d, %v; want 0, nil", stored, err)
	}
	if st := srv.Stats(); st.Manifests != 1 {
		t.Fatalf("Manifests = %d after replacing one, want 1", st.Manifests)
	}
}

// TestCommitRefusesMissingChunk: a manifest naming a chunk the cloud
// never stored is refused with ErrNotFound and records nothing, so no
// acked manifest can fail to restore. The tail it carried is still
// stored: those chunks were durable before the check ran.
func TestCommitRefusesMissingChunk(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()

	tail, never := mkChunk("tail"), mkChunk("never uploaded")
	for _, c := range []struct {
		name  string
		chunk []chunk.Chunk
	}{{"bare", nil}, {"with-tail", []chunk.Chunk{tail}}} {
		_, err := cl.Commit(ctx, c.name, []chunk.ID{tail.ID, never.ID}, c.chunk)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Commit naming a missing chunk = %v, want ErrNotFound", c.name, err)
		}
		if _, err := cl.GetRecipe(ctx, c.name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: GetRecipe after a refused commit = %v, want ErrNotFound", c.name, err)
		}
	}
	if err := cl.PutManifest(ctx, "put", []chunk.ID{never.ID}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("PutManifest naming a missing chunk = %v, want ErrNotFound", err)
	}
	st := srv.Stats()
	if st.Manifests != 0 || st.UniqueChunks != 1 {
		t.Fatalf("stats after refused commits: %+v, want no manifest and only the tail chunk", st)
	}
}

// TestGetMissing: a missing manifest, an unknown container and an open
// container with no records yet are all ErrNotFound, on both logs — the
// empty open container is no file on disk but an empty buffer in memory.
func TestGetMissing(t *testing.T) {
	onBothLogs(t, Config{}, func(t *testing.T, cl *Client, srv *Server, dir string) {
		ctx := context.Background()
		if _, err := cl.GetManifest(ctx, "nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetManifest(missing) = %v, want ErrNotFound", err)
		}
		missing := func(when string, ids ...uint64) {
			t.Helper()
			for _, id := range ids {
				if _, err := cl.GetContainer(ctx, id); !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s: GetContainer(%d) = %v, want ErrNotFound", when, id, err)
				}
				if _, err := srv.containers.read(id, []Extent{{Off: 8, Len: 1}}); !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s: read(%d, extent) = %v, want ErrNotFound", when, id, err)
				}
			}
		}
		missing("fresh store", 0, 1, 2)
		upload1(t, cl, mkChunk("sealed next"))
		srv.FlushContainers()
		missing("after a seal", 0, 2, 3)
	})
}

func TestFetchStats(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	ctx := context.Background()
	upload1(t, cl, mkChunk("x"))
	st, err := cl.FetchStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.UniqueChunks != 1 || st.UniqueBytes != 1 {
		t.Fatalf("FetchStats = %+v", st)
	}
}

// TestEndToEndChunkedFileIdentity uploads a chunked stream the way an
// agent would and verifies bit-exact restore.
func TestEndToEndChunkedFileIdentity(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 300000)
	rng.Read(data)

	chunker, err := chunk.NewFixedChunker(4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunk.SplitBytes(chunker, data)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]chunk.ID, len(chunks))
	for i, c := range chunks {
		ids[i] = c.ID
	}
	if _, err := cl.BatchUpload(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, "blob", ids); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Restore(ctx, "blob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored stream differs")
	}
}
