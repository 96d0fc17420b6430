package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"efdedup/internal/metrics"
	"efdedup/internal/reclog"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// testRing spins up n storage nodes (closed at cleanup) on nw and returns
// their addresses; repairRing also hands back the nodes.
func testRing(t *testing.T, nw *transport.MemNetwork, n int) []string {
	t.Helper()
	addrs, _ := repairRing(t, nw, n)
	return addrs
}

// put writes one key through the coordinator's write path: a one-element
// BatchPut.
func put(ctx context.Context, c *Cluster, key, value []byte) error {
	return c.BatchPut(ctx, [][]byte{key}, [][]byte{value})
}

// has probes one key: a one-element BatchHas.
func has(ctx context.Context, c *Cluster, key []byte) (bool, error) {
	found, err := c.BatchHas(ctx, [][]byte{key})
	if err != nil {
		return false, err
	}
	return found[0], nil
}

// assertAllFound fails unless BatchHas reports every key present.
func assertAllFound(t *testing.T, c *Cluster, keys [][]byte, when string) {
	t.Helper()
	found, err := c.BatchHas(context.Background(), keys)
	if err != nil {
		t.Fatalf("BatchHas %s: %v", when, err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("key %q missing %s", keys[i], when)
		}
	}
}

// nodesByAddr indexes nodes by their listen address.
func nodesByAddr(addrs []string, nodes []*Node) map[string]*Node {
	out := make(map[string]*Node, len(addrs))
	for i, a := range addrs {
		out[a] = nodes[i]
	}
	return out
}

func testCluster(t *testing.T, nw *transport.MemNetwork, cfg ClusterConfig) *Cluster {
	t.Helper()
	cfg.Network = nw
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterConfigValidation(t *testing.T) {
	nw := transport.NewMemNetwork()
	if _, err := NewCluster(ClusterConfig{Network: nw}); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewCluster(ClusterConfig{Members: []string{"a"}}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewCluster(ClusterConfig{Members: []string{"a", "a"}, Network: nw}); err == nil {
		t.Error("duplicate members accepted")
	}
	if _, err := NewCluster(ClusterConfig{Members: []string{"a"}, LocalAddr: "b", Network: nw}); err == nil {
		t.Error("non-member local address accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 3)
	byAddr := nodesByAddr(addrs, nodes)
	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 2})

	ctx := context.Background()
	key := []byte("k1")
	if err := put(ctx, c, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	reps := c.replicas(nil, key, "")
	if len(reps) != 2 {
		t.Fatalf("replica set %v, want 2 nodes", reps)
	}
	for _, addr := range reps {
		e, ok := byAddr[addr].Get(key)
		if !ok || string(e.Value) != "v1" {
			t.Fatalf("replica %s holds %q (present %v), want v1", addr, e.Value, ok)
		}
		delete(byAddr, addr)
	}
	for addr, nd := range byAddr {
		if _, ok := nd.Get(key); ok {
			t.Fatalf("non-replica %s holds the key", addr)
		}
	}
	found, err := c.BatchHas(ctx, [][]byte{key, []byte("missing")})
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || found[1] {
		t.Fatalf("BatchHas = %v, want [true false]", found)
	}
}

func TestPutOverwriteLastWriteWins(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 3)
	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 3, WriteConsistency: All})

	ctx := context.Background()
	key := []byte("k")
	if err := put(ctx, c, key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := put(ctx, c, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if e, ok := nd.Get(key); !ok || string(e.Value) != "new" {
			t.Fatalf("replica %d holds %q after overwrite (present %v), want new", i, e.Value, ok)
		}
	}
}

func TestReplicationSurvivesNodeLoss(t *testing.T) {
	nw := transport.NewMemNetwork()
	n := 4
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(l)
		nodes[i], addrs[i] = node, addr
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 2, WriteConsistency: All})
	ctx := context.Background()

	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
		if err := put(ctx, c, keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill one node: with RF=2 and writes at ALL, every key must still be
	// found through its surviving replica.
	nodes[2].Close()
	assertAllFound(t, c, keys, "after node loss")
}

func TestBatchHasAndBatchPut(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 3)
	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 2, LocalAddr: addrs[0]})

	ctx := context.Background()
	var keys, values [][]byte
	for i := 0; i < 40; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%02d", i)))
		values = append(values, []byte(fmt.Sprintf("val-%02d", i)))
	}
	if err := c.BatchPut(ctx, keys[:20], values[:20]); err != nil {
		t.Fatal(err)
	}
	found, err := c.BatchHas(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if want := i < 20; ok != want {
			t.Errorf("key %d presence = %v, want %v", i, ok, want)
		}
	}
	local, remote := c.LookupStats()
	if local+remote != int64(len(keys)) {
		t.Errorf("lookup stats %d+%d, want %d total", local, remote, len(keys))
	}
	if local == 0 {
		t.Error("no lookups went to the local node despite LocalAddr preference")
	}
}

func TestBatchPutLengthMismatch(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 1)
	c := testCluster(t, nw, ClusterConfig{Members: addrs})
	if err := c.BatchPut(context.Background(), [][]byte{[]byte("a")}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestBatchHasFallbackOnNodeFailure(t *testing.T) {
	nw := transport.NewMemNetwork()
	n := 3
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(l)
		nodes[i], addrs[i] = node, addr
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	reg := metrics.NewRegistry()
	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 2, WriteConsistency: All, Metrics: reg})

	ctx := context.Background()
	var keys [][]byte
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		keys = append(keys, k)
		if err := put(ctx, c, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].Close()
	// The failed probes trip the dead node's breaker, the coordinator's
	// one failure detector; every lookup until then falls back per key.
	for i := 0; !c.skip(addrs[1]); i++ {
		if i == 20 {
			t.Fatal("dead node's breaker never opened")
		}
		assertAllFound(t, c, keys, "after failover")
	}
	// With the breaker open, lookups route around the dead node: no probe
	// is sent to it, and every key still resolves on a surviving replica.
	fails := reg.Counter("kvstore_client_rpc_failures_total", "method", methodBatchHas)
	before := fails.Value()
	assertAllFound(t, c, keys, "with the dead node's breaker open")
	if got := fails.Value() - before; got != 0 {
		t.Errorf("%d probes failed with the dead node's breaker open, want 0", got)
	}
}

func TestWriteQuorumFailure(t *testing.T) {
	nw := transport.NewMemNetwork()
	node, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(l)

	c := testCluster(t, nw, ClusterConfig{
		Members:           []string{"kv-0", "kv-1"}, // kv-1 never exists
		ReplicationFactor: 2,
		WriteConsistency:  All,
		Retry:             retrypolicy.Policy{AttemptTimeout: 200 * time.Millisecond},
	})
	err = put(context.Background(), c, []byte("k"), []byte("v"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("BatchPut = %v, want ErrNoQuorum", err)
	}
	node.Close()
}

func TestHintedHandoffReplaysOnRecovery(t *testing.T) {
	nw := transport.NewMemNetwork()
	// Start both replicas, then take kv-1 down before the write.
	nodeA, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lA, err := nw.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	nodeA.Serve(lA)
	defer nodeA.Close()

	c := testCluster(t, nw, ClusterConfig{
		Members:           []string{"kv-0", "kv-1"},
		ReplicationFactor: 2,
		WriteConsistency:  One,
		Retry:             retrypolicy.Policy{AttemptTimeout: 200 * time.Millisecond},
	})
	ctx := context.Background()
	if err := put(ctx, c, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("BatchPut at ONE with one replica down: %v", err)
	}

	// Bring kv-1 up; one anti-entropy round refills the write it missed.
	nodeB, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lB, err := nw.Listen("kv-1")
	if err != nil {
		t.Fatal(err)
	}
	nodeB.Serve(lB)
	defer nodeB.Close()

	stats, err := c.RepairOnce(ctx)
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if stats.Pushed != 1 {
		t.Errorf("repair pushed %d entries, want 1", stats.Pushed)
	}
	e, ok := nodeB.Get([]byte("k"))
	if !ok || string(e.Value) != "v" {
		t.Fatalf("recovered replica holds %q (present %v), want v", e.Value, ok)
	}
}

func TestNodeStatsCounting(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 1)
	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 1})
	ctx := context.Background()

	if err := put(ctx, c, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	found, err := c.BatchHas(ctx, [][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || found[1] {
		t.Fatalf("BatchHas = %v, want [true false]", found)
	}
	stats, err := c.MemberStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s := stats[addrs[0]]
	if s.Puts != 1 || s.Gets != 2 || s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWALPersistence(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")

	nw := transport.NewMemNetwork()
	node, err := NewNode(NodeConfig{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(l)
	c := testCluster(t, nw, ClusterConfig{Members: []string{"kv-0"}, ReplicationFactor: 1})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := put(ctx, c, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	node.Close()

	// Restart from the WAL.
	node2, err := NewNode(NodeConfig{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if node2.Len() != 10 {
		t.Fatalf("restarted node has %d entries, want 10", node2.Len())
	}
}

func TestWALStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: walPath})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("k%d", i)), Entry{Value: []byte("v"), Version: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Append garbage: replay must keep the 5 intact records and stop.
	if err := w.Append([]byte("k5"), Entry{Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Truncate the last record to simulate a torn write.
	// (Open the file and chop a few bytes.)
	data, err := readFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(walPath, data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}
	count := 0
	stats, err := reclog.Scan(walPath, nil, replayInto(func([]byte, Entry) { count++ }))
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 || stats.Records != 5 {
		t.Fatalf("replayed %d records (stats %+v), want 5", count, stats)
	}
	if stats.TornBytes == 0 {
		t.Fatalf("torn tail not counted: %+v", stats)
	}
	if stats.CorruptBytes != 0 {
		t.Fatalf("torn tail misclassified as corruption: %+v", stats)
	}
}

func TestReplayMissingWAL(t *testing.T) {
	stats, err := reclog.Scan(filepath.Join(t.TempDir(), "nope.wal"), nil, replayInto(func([]byte, Entry) {
		t.Fatal("callback invoked for missing file")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ReplayStats{}) {
		t.Fatalf("stats = %+v, want zero", stats)
	}
}

func TestConsistencyRequired(t *testing.T) {
	tests := []struct {
		c    Consistency
		n    int
		want int
	}{
		{One, 3, 1},
		{Quorum, 3, 2},
		{Quorum, 4, 3},
		{Quorum, 1, 1},
		{All, 3, 3},
	}
	for _, tt := range tests {
		if got := tt.c.required(tt.n); got != tt.want {
			t.Errorf("%s.required(%d) = %d, want %d", tt.c, tt.n, got, tt.want)
		}
	}
	if One.String() != "ONE" || Quorum.String() != "QUORUM" || All.String() != "ALL" {
		t.Error("Consistency.String mismatch")
	}
}

// TestPropertyEntryCodecRoundTrip fuzzes the wire codec.
func TestPropertyEntryCodecRoundTrip(t *testing.T) {
	f := func(key, value []byte, version uint64) bool {
		enc := encodeEntry(nil, key, Entry{Value: value, Version: version})
		k, e, rest, err := decodeEntry(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		return bytes.Equal(k, key) && bytes.Equal(e.Value, value) && e.Version == version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyListCodecRoundTrip(t *testing.T) {
	f := func(keys [][]byte) bool {
		dec, err := decodeKeyList(encodeKeyList(keys))
		if err != nil {
			return false
		}
		if len(dec) != len(keys) {
			return false
		}
		for i := range keys {
			if !bytes.Equal(dec[i], keys[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	if _, _, _, err := decodeEntry([]byte{0, 0}); err == nil {
		t.Error("truncated entry decoded")
	}
	if _, err := decodeKeyList([]byte{0}); err == nil {
		t.Error("truncated key list decoded")
	}
	if _, err := decodeStats([]byte{1, 2}); err == nil {
		t.Error("short stats decoded")
	}
}
