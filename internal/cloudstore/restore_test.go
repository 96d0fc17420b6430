package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
)

// uploadStream pushes a stream in 4 KiB chunks and its manifest,
// returning the raw bytes for identity checks.
func uploadStream(t *testing.T, cl *Client, name string, seed int64, size int) []byte {
	t.Helper()
	return uploadChunked(t, cl, name, seed, size, 4096)
}

// uploadChunked is uploadStream with a chunk size: small chunks make a
// small stream span several pages.
func uploadChunked(t *testing.T, cl *Client, name string, seed int64, size, chunkSize int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	rng.Read(data)
	chunker, err := chunk.NewFixedChunker(chunkSize)
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

// clientRPCs counts the RPCs every cloud client of this process has
// issued.
func clientRPCs() int64 {
	var n int64
	for _, m := range clientMethods {
		n += metrics.Default().DurationHistogram("cloud_client_rpc_seconds", "method", m).Snapshot().Count
	}
	return n
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
	// 500 KB over 64 KiB containers: the stream spans several, and the
	// server reads each once for the stream's one page.
	if st.ContainersTouched < 7 {
		t.Fatalf("ContainersTouched = %d, want >= 7", st.ContainersTouched)
	}
	if st.Pages != 1 {
		t.Fatalf("Pages = %d, want 1", st.Pages)
	}
}

// TestRestoreIsOneRoundTripPerPage counts the RPCs of restores: a stream
// of up to readPageChunks chunks costs exactly one, however many
// containers it spans, and a longer one one per page.
func TestRestoreIsOneRoundTripPerPage(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	for _, chunks := range []int{1, readPageChunks, readPageChunks + 1, 3*readPageChunks + 5} {
		name := fmt.Sprintf("s%d", chunks)
		data := uploadChunked(t, cl, name, int64(chunks), chunks*512, 512)
		srv.FlushContainers()
		before := clientRPCs()
		got, err := cl.Restore(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d chunks: restored stream differs", chunks)
		}
		pages := (chunks + readPageChunks - 1) / readPageChunks
		if rpcs := clientRPCs() - before; rpcs != int64(pages) {
			t.Fatalf("%d chunks: %d RPCs, want %d", chunks, rpcs, pages)
		}
	}
}

// TestRestorePageOutgrowsOneReply restores one page of 1 MiB chunks
// whose payloads pass readPageBytes: the server cuts the reply short and
// the client asks for the rest of the page.
func TestRestorePageOutgrowsOneReply(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	const chunks = readPageBytes>>20 + 4
	data := uploadChunked(t, cl, "large", 29, chunks<<20, 1<<20)
	var buf bytes.Buffer
	st, err := cl.RestoreTo(context.Background(), "large", &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) || st.Chunks != chunks || st.Pages != 2 {
		t.Fatalf("identical=%v, %d chunks in %d replies; want %d in 2", bytes.Equal(buf.Bytes(), data), st.Chunks, st.Pages, chunks)
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
		if st.ContainersTouched != 1 || st.Pages != 1 {
			t.Fatalf("ContainersTouched = %d, Pages = %d; want 1 and 1", st.ContainersTouched, st.Pages)
		}
	})
}

// TestRestoreIdenticalAcrossPipelineShapes is the ordering property: any
// read-ahead depth must produce byte-identical output over a stream of
// several pages.
func TestRestoreIdenticalAcrossPipelineShapes(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 32 << 10})
	data := uploadChunked(t, cl, "shapes", 13, 300_000, 512)
	srv.FlushContainers()

	for _, ra := range []int{1, 2, 7} {
		var buf bytes.Buffer
		st, err := cl.RestoreTo(context.Background(), "shapes", &buf, RestoreOptions{ReadAhead: ra})
		if err != nil {
			t.Fatalf("ReadAhead=%d: %v", ra, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("ReadAhead=%d: output differs", ra)
		}
		if st.Pages != 3 {
			t.Fatalf("ReadAhead=%d: %d pages, want 3", ra, st.Pages)
		}
	}
}

// TestRestoreReadsRevisitedContainerOnce restores a manifest ordered
// A-chunks, B-chunks, A-chunks again: its one page reads each container
// once.
func TestRestoreReadsRevisitedContainerOnce(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	ctx := context.Background()

	// Two distinct 16 KiB containers A and B.
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
	for _, d := range slices.Concat(aData, bData, aData) {
		want = append(want, d...)
	}

	var buf bytes.Buffer
	st, err := cl.RestoreTo(ctx, "aba", &buf, RestoreOptions{ReadAhead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("A-B-A restore differs")
	}
	if st.Pages != 1 || st.ContainersTouched != 2 {
		t.Fatalf("Pages = %d, ContainersTouched = %d; want 1 and 2", st.Pages, st.ContainersTouched)
	}
	// Each distinct payload crosses the wire once: A's second visit
	// costs its IDs only.
	if max := int64(len(want))*2/3 + 1024; st.FetchedBytes > max {
		t.Fatalf("fetched %d bytes, want at most %d", st.FetchedBytes, max)
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
	uploadChunked(t, cl, "teardown", 17, 400_000, 512)
	srv.FlushContainers()

	_, err := cl.RestoreTo(context.Background(), "teardown", &failAfterWriter{n: 50_000}, RestoreOptions{ReadAhead: 4})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("sink full")) {
		t.Fatalf("err = %v, want wrapped sink failure", err)
	}
}

// pagedWriter checks, at every write, that the restore has asked the
// server for no more pages than those already written, the one being
// written and the ReadAhead ones behind it; and, at its first write,
// waits until read-ahead has asked for all ReadAhead of them.
type pagedWriter struct {
	t         *testing.T
	readAhead int
	served    *atomic.Int64 // cloud.read calls the server has begun
	chunks    int
	buf       bytes.Buffer
}

func (w *pagedWriter) Write(p []byte) (int, error) {
	if w.chunks == 0 {
		deadline := time.Now().Add(10 * time.Second)
		for w.served.Load() < int64(1+w.readAhead) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	written := w.chunks / readPageChunks // whole pages written
	if n, most := w.served.Load(), int64(1+w.readAhead+written); n > most {
		w.t.Errorf("chunk %d: %d pages asked for, at most %d may be in flight", w.chunks, n, most)
	}
	w.chunks++
	return w.buf.Write(p)
}

// TestRestoreMemoryBoundedByPagesInFlight restores a stream of many
// pages: ReadAhead pages are fetched behind the one being written, never
// more, so memory is bounded by the pages in flight, not by the stream.
func TestRestoreMemoryBoundedByPagesInFlight(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	data := uploadChunked(t, cl, "big", 19, 12*readPageChunks*256, 256)
	srv.FlushContainers()
	var served atomic.Int64
	srv.rpc.Handle(methodRead, func(body []byte) ([]byte, error) {
		served.Add(1)
		return srv.handleRead(body)
	})

	w := &pagedWriter{t: t, readAhead: 2, served: &served}
	st, err := cl.RestoreTo(context.Background(), "big", w, RestoreOptions{ReadAhead: w.readAhead})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), data) {
		t.Fatal("restored stream differs")
	}
	if st.Pages != 12 || served.Load() != 12 {
		t.Fatalf("%d pages restored, %d served; want 12", st.Pages, served.Load())
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
