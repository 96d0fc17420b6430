package agent

import (
	"context"
	"testing"

	"efdedup/internal/chunk"
)

// TestRegisterFreshOwnerValues pins the registerFresh batching contract:
// every index entry carries the full owner name even though all values in
// one BatchPut share a single backing []byte (the per-chunk conversion
// was hoisted out of the loop). A store that retained and mutated values
// would corrupt every entry at once — this test would catch that.
func TestRegisterFreshOwnerValues(t *testing.T) {
	tb := newTestbed(t, 2)
	idx := tb.ringIndex(t, 0)
	a, err := New(Config{
		Name:  "owner-agent",
		Mode:  ModeRing,
		Index: idx,
		Cloud: tb.cloudClient(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	data := duplicatedData(41, 64*1024)
	ctx := context.Background()
	if _, err := a.ProcessBytes(ctx, "owned", data); err != nil {
		t.Fatal(err)
	}

	// Recompute the chunk set with the agent's default chunker and read
	// every ID back out of both replicas (2 nodes at γ = 2 hold every key).
	fc, err := chunk.NewFixedChunker(chunk.DefaultFixedSize)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunk.SplitBytes(fc, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("need at least 2 chunks to exercise value sharing, got %d", len(chunks))
	}
	for _, c := range chunks {
		id := c.ID
		for i, node := range tb.kvNodes {
			e, ok := node.Get(id[:])
			if !ok {
				t.Fatalf("replica %d missing chunk %s", i, c.ID)
			}
			if string(e.Value) != "owner-agent" {
				t.Fatalf("replica %d: chunk %s owner = %q, want %q", i, c.ID, e.Value, "owner-agent")
			}
		}
	}
}
