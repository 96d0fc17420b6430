package agent

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestPipelineAllocsPerChunk pins how many heap allocations the ring
// pipeline makes per chunk, on warm input (every chunk a duplicate: hash,
// ring lookup, route, manifest) and on fresh input (every chunk also
// uploaded and inserted into the index). The count is deterministic to
// within a few hundredths per chunk, so one more allocation per chunk
// anywhere on the hot path (a fmt.Sprintf in the router, a []byte↔string
// copy, a map made per chunk) breaks the bound.
func TestPipelineAllocsPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so allocation counts vary")
	}
	const streamBytes = 2 << 20
	tb := newTestbed(t, 2)
	// Worker counts are pinned: their goroutines are a per-stream cost
	// that would otherwise scale with the machine's CPUs.
	a, err := New(Config{
		Name:           "allocs",
		Mode:           ModeRing,
		Index:          tb.ringIndex(t, 0),
		Cloud:          tb.cloudClient(t),
		HashWorkers:    2,
		LookupInflight: DefaultLookupInflight,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	stream := func() []byte {
		b := make([]byte, streamBytes)
		rng.Read(b)
		return b
	}

	warm := stream()
	rep, err := a.ProcessBytes(ctx, "warm", warm)
	if err != nil {
		t.Fatal(err)
	}
	chunks := float64(rep.InputChunks)
	const runs = 5
	fresh := make([][]byte, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range fresh {
		fresh[i] = stream()
	}
	next := 0
	for _, tc := range []struct {
		name  string
		bound float64
		f     func()
	}{
		// Measured on linux/amd64, go1.24: 4.93-4.96 (warm) and
		// 9.69-9.84 (fresh) allocations per chunk over 50 runs. The
		// bounds leave about 0.45 of headroom, under the one allocation a
		// planted per-chunk fmt.Sprintf adds.
		{"warm", 5.4, func() {
			if _, err := a.ProcessBytes(ctx, "warm", warm); err != nil {
				t.Fatal(err)
			}
		}},
		{"fresh", 10.3, func() {
			data := fresh[next]
			next++
			if _, err := a.ProcessBytes(ctx, fmt.Sprintf("fresh-%d", next), data); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		perChunk := testing.AllocsPerRun(runs, tc.f) / chunks
		t.Logf("%s: %.3f allocations per chunk (%d chunks per stream)", tc.name, perChunk, rep.InputChunks)
		if perChunk > tc.bound {
			t.Errorf("%s input: %.3f allocations per chunk, want at most %.2f", tc.name, perChunk, tc.bound)
		}
	}
}
