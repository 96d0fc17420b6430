// Chaos end-to-end tests for the paged restore path: a client streams a
// multi-page restore while the cloud link fails under it — partitioned
// twice at the moments a page is asked for, or stalling at random. The
// retry layer must redial and resume transparently, and the output must
// stay byte-identical.
package netem_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// pagedCloud serves a cloud that cuts streams into 256-byte chunks, so
// that a 256 KiB stream is four pages of 256 chunks.
func pagedCloud(t *testing.T, fab *netem.Topology, mem *transport.MemNetwork) *cloudstore.Server {
	t.Helper()
	chunker, err := chunk.NewFixedChunker(256)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cloudstore.NewServer(cloudstore.Config{Chunker: chunker, ContainerBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	l, err := fab.NetworkFor("cloud", mem).Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// outageWriter cuts the edge off the cloud once it has written at bytes,
// and heals the link after a while.
type outageWriter struct {
	buf bytes.Buffer
	fab *netem.Topology
	at  int
}

func (w *outageWriter) Write(p []byte) (int, error) {
	if w.buf.Len() < w.at && w.buf.Len()+len(p) >= w.at {
		w.fab.PartitionBoth("edge", "cloud")
		w.fab.Schedule(150*time.Millisecond, func(f *netem.Topology) { f.HealAll() })
	}
	return w.buf.Write(p)
}

func TestRestoreSurvivesCloudOutagesMidStream(t *testing.T) {
	mem := transport.NewMemNetwork()
	fab := netem.NewTopology(netem.Link{})
	defer fab.Close()
	srv := pagedCloud(t, fab, mem)

	// A retry policy generous enough to ride out the outages; the
	// breaker threshold is high so fail-fast never masks the retry path
	// under test.
	cl, err := cloudstore.DialWithPolicy(context.Background(), fab.NetworkFor("edge", mem), "cloud",
		retrypolicy.Policy{MaxAttempts: 15, BaseDelay: 25 * time.Millisecond, MaxDelay: 150 * time.Millisecond, Seed: 7},
		retrypolicy.BreakerConfig{FailureThreshold: 1000, OpenFor: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	data := chaosData(31, 256*1024)
	if _, err := cl.UploadRaw(ctx, "vm-image", data); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	// Two outages, each in the way of a page: the first page is asked
	// for into a partition, and with one page in flight the third is
	// asked for once the second is written — half the stream, when the
	// writer cuts the link again.
	start := time.Now()
	fab.PartitionBoth("edge", "cloud")
	fab.Schedule(150*time.Millisecond, func(f *netem.Topology) { f.HealAll() })
	w := &outageWriter{fab: fab, at: len(data) / 2}
	st, err := cl.RestoreTo(ctx, "vm-image", w, cloudstore.RestoreOptions{ReadAhead: 1})
	if err != nil {
		t.Fatalf("restore aborted under scripted outages: %v", err)
	}
	if !bytes.Equal(w.buf.Bytes(), data) {
		t.Fatal("restore under faults differs from original")
	}
	if st.Bytes != int64(len(data)) || st.Pages != 4 {
		t.Fatalf("stats.Bytes = %d in %d pages, want %d in 4", st.Bytes, st.Pages, len(data))
	}
	if st.ContainersTouched < 10 {
		t.Fatalf("ContainersTouched = %d, want a genuinely multi-container stream", st.ContainersTouched)
	}
	// A page asked for into an outage completes after its heal.
	if took := time.Since(start); took < 300*time.Millisecond {
		t.Fatalf("restore took %v: a page did not wait out one of the two 150 ms outages", took)
	}
}

// TestRestoreSurvivesStochasticStalls runs a multi-page restore through
// a topology injecting seeded random connection stalls (slow, not dead)
// and checks the pipeline neither aborts nor corrupts output.
func TestRestoreSurvivesStochasticStalls(t *testing.T) {
	mem := transport.NewMemNetwork()
	fab := netem.NewTopology(netem.Link{})
	fab.SetFaults(netem.Faults{
		Seed:      11,
		StallProb: 0.2,
		StallFor:  30 * time.Millisecond,
	})
	defer fab.Close()
	srv := pagedCloud(t, fab, mem)

	cl, err := cloudstore.DialWithPolicy(context.Background(), fab.NetworkFor("edge", mem), "cloud",
		retrypolicy.Policy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Seed: 11},
		retrypolicy.BreakerConfig{FailureThreshold: 1000, OpenFor: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	data := chaosData(37, 192*1024)
	if _, err := cl.UploadRaw(ctx, "stalled-image", data); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	var buf bytes.Buffer
	st, err := cl.RestoreTo(ctx, "stalled-image", &buf, cloudstore.RestoreOptions{ReadAhead: 4})
	if err != nil {
		t.Fatalf("restore aborted under stalls: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) || st.Pages != 3 {
		t.Fatalf("restore under stalls: identical=%v in %d pages, want 3", bytes.Equal(buf.Bytes(), data), st.Pages)
	}
}
