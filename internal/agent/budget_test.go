package agent

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"efdedup/internal/chunk"
)

// waitAll runs every fn concurrently and fails the test with a stack dump
// if they have not all returned within d.
func waitAll(t *testing.T, d time.Duration, fns ...func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("streams still running after %v:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// budgetDrained fails unless every admitted byte was released.
func budgetDrained(t *testing.T, a *Agent) {
	t.Helper()
	b := a.sched.budget
	if b == nil {
		return
	}
	b.mu.Lock()
	used, waiters := b.used, len(b.waiters)
	b.mu.Unlock()
	if used != 0 || waiters != 0 {
		t.Fatalf("arena budget not drained: used=%d waiters=%d", used, waiters)
	}
}

// TestBudgetSmallerThanParkedBatches is the hold-and-wait repro: an 8 KiB
// budget holds at most eight maximum-size chunks, fewer than a partial
// lookup batch and a partial upload batch park between them, so the
// chunker's next admission waits for bytes only its own stream's later
// chunks would release. The stream must still finish, promptly.
func TestBudgetSmallerThanParkedBatches(t *testing.T) {
	tb := newTestbed(t, 3)
	a, err := New(Config{
		Name: "tight", Mode: ModeRing,
		Index: tb.ringIndex(t, 0), Cloud: tb.cloudClient(t),
		Chunker:     smallGear(t),
		HashWorkers: 2, LookupInflight: 2,
		ArenaBudgetBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(17)).Read(data)
	var rep Report
	waitAll(t, 900*time.Millisecond, func() {
		rep, err = a.ProcessBytes(context.Background(), "tight", data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputBytes != int64(len(data)) || rep.UploadedChunks == 0 {
		t.Fatalf("report %+v", rep)
	}
	budgetDrained(t, a)
}

// TestBudgetProperty draws budgets from one maximum chunk up to 1 MiB,
// 1-16 concurrent streams and fresh or warm inputs from a seed. Under
// any budget every stream finishes, its manifest and Report equal a run
// with no budget at all, and the budget drains to zero: admission may
// shrink batches, never change what is deduplicated or stored.
func TestBudgetProperty(t *testing.T) {
	const maxChunk = 1024 // smallGear's maximum
	rng := rand.New(rand.NewSource(42))
	cases := 6
	if testing.Short() {
		cases = 3
	}
	for c := 0; c < cases; c++ {
		budget := maxChunk + rng.Int63n(1<<20-maxChunk+1)
		if c == 0 {
			budget = maxChunk
		}
		streams := 1 + rng.Intn(16)
		warm := rng.Intn(2) == 1
		inputs := make([][]byte, streams)
		for i := range inputs {
			inputs[i] = make([]byte, rng.Intn(96<<10))
			rng.Read(inputs[i])
			// A repeated run inside the stream exercises the collector's
			// intra-stream duplicate path.
			if n := len(inputs[i]); n > 8<<10 {
				copy(inputs[i][n/2:], inputs[i][:n/4])
			}
		}
		t.Run(fmt.Sprintf("budget=%d/streams=%d/warm=%v", budget, streams, warm), func(t *testing.T) {
			wantReps, wantMans := budgetRun(t, -1, warm, inputs)
			gotReps, gotMans := budgetRun(t, budget, warm, inputs)
			for i := range inputs {
				if !reportsEqual(gotReps[i], wantReps[i]) {
					t.Errorf("stream %d report under budget %d:\n got %+v\nwant %+v", i, budget, gotReps[i], wantReps[i])
				}
				if fmt.Sprint(gotMans[i]) != fmt.Sprint(wantMans[i]) {
					t.Errorf("stream %d manifest differs under budget %d", i, budget)
				}
			}
		})
	}
}

// budgetRun processes inputs concurrently through one agent with the
// given arena budget on a fresh testbed, after registering every input
// in the ring index first when warm, and returns each stream's Report
// and stored manifest.
func budgetRun(t *testing.T, budget int64, warm bool, inputs [][]byte) ([]Report, [][]chunk.ID) {
	t.Helper()
	tb := newTestbed(t, 3)
	cl := tb.cloudClient(t)
	if warm {
		w, err := New(Config{Name: "warm", Mode: ModeRing, Index: tb.ringIndex(t, 0), Cloud: cl, Chunker: smallGear(t)})
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			if _, err := w.ProcessBytes(context.Background(), fmt.Sprintf("warm-%d", i), in); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, err := New(Config{
		Name: "prop", Mode: ModeRing,
		Index: tb.ringIndex(t, 0), Cloud: cl,
		Chunker:     smallGear(t),
		HashWorkers: 2, LookupInflight: 2,
		MaxStreams: 16, ArenaBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]Report, len(inputs))
	errs := make([]error, len(inputs))
	fns := make([]func(), len(inputs))
	for i := range inputs {
		fns[i] = func() { reps[i], errs[i] = a.ProcessBytes(context.Background(), fmt.Sprintf("s-%d", i), inputs[i]) }
	}
	waitAll(t, 10*time.Second, fns...)
	mans := make([][]chunk.ID, len(inputs))
	for i := range inputs {
		if errs[i] != nil {
			t.Fatalf("budget %d stream %d: %v", budget, i, errs[i])
		}
		reps[i].Name = ""
		if mans[i], err = cl.GetManifest(context.Background(), fmt.Sprintf("s-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	budgetDrained(t, a)
	return reps, mans
}
