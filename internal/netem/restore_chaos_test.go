// Chaos end-to-end test for the container restore path: a client
// streams a multi-container restore while scripted faults kill the
// cloud connection mid-flight — twice. The retry layer must redial and
// resume transparently, and the output must stay byte-identical.
package netem_test

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"efdedup/internal/cloudstore"
	"efdedup/internal/netem"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// slowWriter throttles the restore sink so scripted faults land while
// container fetches are still in flight.
type slowWriter struct {
	w     io.Writer
	delay time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.w.Write(p)
}

func TestRestoreSurvivesCloudOutagesMidStream(t *testing.T) {
	mem := transport.NewMemNetwork()
	fab := netem.NewTopology(netem.Link{})
	defer fab.Close()
	cloudNW := fab.NetworkFor("cloud", mem)
	edgeNW := fab.NetworkFor("edge", mem)

	srv, err := cloudstore.NewServer(cloudstore.Config{ContainerBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	l, err := cloudNW.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	defer srv.Close()

	// A retry policy generous enough to ride out the scripted outages;
	// the breaker threshold is high so fail-fast never masks the retry
	// path under test.
	cl, err := cloudstore.DialWithPolicy(context.Background(), edgeNW, "cloud",
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

	// Two scripted outages: the first kills in-flight container fetches
	// early in the restore, the second after the client has redialed.
	fab.Schedule(40*time.Millisecond, func(f *netem.Topology) { f.PartitionBoth("edge", "cloud") })
	fab.Schedule(240*time.Millisecond, func(f *netem.Topology) { f.HealAll() })
	fab.Schedule(500*time.Millisecond, func(f *netem.Topology) { f.PartitionBoth("edge", "cloud") })
	fab.Schedule(700*time.Millisecond, func(f *netem.Topology) { f.HealAll() })

	var buf bytes.Buffer
	st, err := cl.RestoreTo(ctx, "vm-image", &slowWriter{w: &buf, delay: 8 * time.Millisecond},
		cloudstore.RestoreOptions{ReadAhead: 3, CacheContainers: 4})
	if err != nil {
		t.Fatalf("restore aborted under scripted outages: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restore under faults differs from original")
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("stats.Bytes = %d, want %d", st.Bytes, len(data))
	}
	if st.ContainersTouched < 10 {
		t.Fatalf("ContainersTouched = %d, want a genuinely multi-container stream", st.ContainersTouched)
	}
}

// TestRestoreSurvivesStochasticStalls runs a restore through a topology
// injecting seeded random connection stalls (slow, not dead) and checks
// the pipeline neither aborts nor corrupts output.
func TestRestoreSurvivesStochasticStalls(t *testing.T) {
	mem := transport.NewMemNetwork()
	fab := netem.NewTopology(netem.Link{})
	fab.SetFaults(netem.Faults{
		Seed:      11,
		StallProb: 0.2,
		StallFor:  30 * time.Millisecond,
	})
	defer fab.Close()
	cloudNW := fab.NetworkFor("cloud", mem)
	edgeNW := fab.NetworkFor("edge", mem)

	srv, err := cloudstore.NewServer(cloudstore.Config{ContainerBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	l, err := cloudNW.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	defer srv.Close()

	cl, err := cloudstore.DialWithPolicy(context.Background(), edgeNW, "cloud",
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
	if _, err := cl.RestoreTo(ctx, "stalled-image", &buf, cloudstore.RestoreOptions{ReadAhead: 4}); err != nil {
		t.Fatalf("restore aborted under stalls: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restore under stalls differs from original")
	}
}
