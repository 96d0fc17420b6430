package efdedup_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"efdedup"
	"efdedup/internal/transport"
)

// TestFacadeAgentAndCloud builds agents and the cloud through the public
// constructors only.
func TestFacadeAgentAndCloud(t *testing.T) {
	nw := transport.NewMemNetwork()
	cloud, err := efdedup.NewCloudServer(efdedup.CloudServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	cloud.Serve(l)
	defer cloud.Close()

	node, err := efdedup.NewIndexNode(efdedup.IndexNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := nw.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(lk)
	defer node.Close()

	idx, err := efdedup.NewIndexCluster(efdedup.IndexClusterConfig{
		Members:          []string{"kv-0"},
		Network:          nw,
		WriteConsistency: efdedup.One,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	cloudClient, err := efdedup.DialCloud(context.Background(), nw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudClient.Close()

	a, err := efdedup.NewAgent(efdedup.AgentConfig{
		Name:  "facade-agent",
		Mode:  efdedup.ModeRing,
		Index: idx,
		Cloud: cloudClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("facade agent data block!"), 2048)
	rep, err := a.ProcessStream(context.Background(), "f", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputBytes != int64(len(data)) {
		t.Fatalf("InputBytes = %d", rep.InputBytes)
	}
	if rep.DedupRatio() <= 1 {
		t.Fatalf("repetitive stream ratio %v, want > 1", rep.DedupRatio())
	}
	if got := a.Mode().String(); got != "ring" {
		t.Fatalf("Mode = %q", got)
	}
	st := cloud.Stats()
	if st.UniqueChunks == 0 {
		t.Fatal("cloud stored nothing")
	}
}

func TestFacadeMinHash(t *testing.T) {
	ids := make([]efdedup.ChunkID, 50)
	for i := range ids {
		ids[i] = efdedup.SumChunk([]byte(fmt.Sprintf("payload-%d", i)))
	}
	sig, err := efdedup.SketchChunks(ids, 64)
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := efdedup.SketchChunks(ids, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sim, _ := sig.Jaccard(sig2); sim != 1 {
		t.Fatalf("identical sets similarity %v", sim)
	}
}

func TestFacadeSimilarityMatrix(t *testing.T) {
	chunker, err := efdedup.NewFixedChunker(256)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[int][][]byte{
		1: {bytes.Repeat([]byte("AAAA"), 2000)},
		5: {bytes.Repeat([]byte("AAAA"), 2000)},
		9: {bytes.Repeat([]byte("ZZZZ"), 2000)},
	}
	ids, sim, err := efdedup.SimilarityMatrix(samples, chunker, efdedup.DefaultMinHashSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 5 || ids[2] != 9 {
		t.Fatalf("ids = %v", ids)
	}
	if sim[0][1] != 1 {
		t.Errorf("identical sources similarity %v, want 1", sim[0][1])
	}
	if sim[0][2] != 0 {
		t.Errorf("disjoint sources similarity %v, want 0", sim[0][2])
	}
}

func TestFacadeTopology(t *testing.T) {
	topo := efdedup.NewTopology(efdedup.Link{Delay: 5 * time.Millisecond})
	topo.SetSymmetricLink("a", "b", efdedup.Link{Delay: 10 * time.Millisecond})
	if l := topo.LinkBetween("a", "b"); l.Delay != 10*time.Millisecond {
		t.Fatalf("LinkBetween = %v", l.Delay)
	}
}

func TestFacadePartitionerNames(t *testing.T) {
	algos := []efdedup.Partitioner{
		efdedup.SMART, efdedup.SMARTGreedy, efdedup.SMARTEqualSize,
		efdedup.MatchingPartitioner, efdedup.GroupPackPartitioner,
		efdedup.NetworkOnly, efdedup.DedupOnly, efdedup.Optimal,
	}
	seen := map[string]bool{}
	for _, a := range algos {
		name := a.Name()
		if name == "" || seen[name] {
			t.Fatalf("duplicate or empty partitioner name %q", name)
		}
		seen[name] = true
	}
}

func TestFacadeConsistencyValues(t *testing.T) {
	if efdedup.One.String() != "ONE" || efdedup.Quorum.String() != "QUORUM" || efdedup.All.String() != "ALL" {
		t.Fatal("consistency constants mismatched")
	}
}
