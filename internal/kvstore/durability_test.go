package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"efdedup/internal/reclog"
	"efdedup/internal/transport"
)

func TestParseSyncPolicy(t *testing.T) {
	tests := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"interval", SyncInterval, false},
		{"", SyncInterval, false},
		{"off", SyncOff, false},
		{"sometimes", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseSyncPolicy(tt.in)
		if tt.err {
			if !errors.Is(err, ErrConfig) {
				t.Errorf("ParseSyncPolicy(%q) err = %v, want ErrConfig", tt.in, err)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v, want %v", tt.in, got, err, tt.want)
		}
	}
}

// TestWALSyncAlwaysDurableBeforeAck proves the core crash-safety claim:
// under SyncAlways an acknowledged append is on disk even if the process
// dies without flushing (kill drops user-space buffers).
func TestWALSyncAlwaysDurableBeforeAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: path, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("k%d", i)), Entry{Value: []byte("v"), Version: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	w.kill() // simulated SIGKILL: no flush, no fsync
	stats, err := reclog.Scan(path, nil, replayInto(nil))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 {
		t.Fatalf("replayed %d records after kill, want 3 (SyncAlways must be durable before ack)", stats.Records)
	}
}

// TestWALSyncOffLosesBufferedOnKill is the counter-claim: without syncing,
// a kill loses the buffered tail — which is why SyncOff is only safe when
// replication covers the loss window.
func TestWALSyncOffLosesBufferedOnKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: path, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("k"), Entry{Value: []byte("v"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	w.kill()
	stats, err := reclog.Scan(path, nil, replayInto(nil))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 {
		t.Fatalf("replayed %d records, want 0 — kill must drop unflushed buffers", stats.Records)
	}
}

// TestWALIntervalGroupCommit: the background flusher makes appends durable
// within roughly one SyncEvery without any explicit Sync call.
func TestWALIntervalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: path, Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("k"), Entry{Value: []byte("v"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		stats, err := reclog.Scan(path, nil, replayInto(nil))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Records == 1 {
			w.kill()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("group commit never flushed the appended record")
}

// TestWALOpenTruncatesTornTail: a torn tail must be cut off on open so
// post-crash appends extend the valid prefix and replay on the next start.
func TestWALOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append([]byte(fmt.Sprintf("k%d", i)), Entry{Value: []byte("v"), Version: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record.
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	// Reopen (truncates) and append a post-crash record.
	w2, err := OpenWALOptions(WALOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("post"), Entry{Value: []byte("crash"), Version: 9}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	stats, err := reclog.Scan(path, nil, replayInto(func(key []byte, e Entry) { keys = append(keys, string(key)) }))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 4 || stats.Discarded() != 0 {
		t.Fatalf("post-crash replay: %+v, want 4 clean records", stats)
	}
	if keys[3] != "post" {
		t.Fatalf("post-crash append not replayed: %v", keys)
	}
}

// TestWALReplayClassifiesCorruption: a bit-flip inside a complete record
// counts as corruption, not a torn tail, and stops replay there.
func TestWALReplayClassifiesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 4; i++ {
		if err := w.Append([]byte(fmt.Sprintf("k%d", i)), Entry{Value: []byte("v"), Version: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the third record.
	data[offsets[1]+10] ^= 0xff
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	stats, err := reclog.Scan(path, nil, replayInto(nil))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 {
		t.Fatalf("replayed %d records, want 2 (stop at corruption)", stats.Records)
	}
	if stats.CorruptBytes == 0 || stats.TornBytes != 0 {
		t.Fatalf("bit flip misclassified: %+v, want CorruptBytes > 0", stats)
	}
	// The fourth record is intact but unreachable; it must be counted as
	// discarded, and a node opening this log must truncate it away.
	if stats.Discarded() != int64(len(data))-stats.Bytes {
		t.Fatalf("discarded %d bytes, want %d", stats.Discarded(), int64(len(data))-stats.Bytes)
	}
}

func TestWALClosedOperations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v, want first result (nil)", err)
	}
	if err := w.Append([]byte("k"), Entry{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close = %v, want ErrClosed", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
	if err := w.Truncate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Truncate after close = %v, want ErrClosed", err)
	}
}

func TestSnapshotRecoversWithWALSuffix(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")

	node, err := NewNode(NodeConfig{WALPath: walPath, WALSync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	put := func(n *Node, k, v string, ver uint64) {
		t.Helper()
		if _, err := n.handleBatchPut(appendScan(nil, []keyedEntry{{key: []byte(k), e: Entry{Value: []byte(v), Version: ver}}})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(node, fmt.Sprintf("pre%d", i), "v", uint64(i+1))
	}
	if err := node.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := node.wal.Size(); got != 0 {
		t.Fatalf("WAL size after snapshot = %d, want 0", got)
	}
	// Writes after the snapshot land only in the WAL suffix.
	for i := 0; i < 5; i++ {
		put(node, fmt.Sprintf("post%d", i), "v", uint64(100+i))
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	node2, err := NewNode(NodeConfig{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if node2.Len() != 15 {
		t.Fatalf("recovered %d entries, want 15 (10 snapshot + 5 WAL suffix)", node2.Len())
	}
	if rs := node2.RecoveryStats(); rs.Records != 5 || rs.Discarded() != 0 {
		t.Fatalf("recovery stats %+v, want 5 clean WAL-suffix records", rs)
	}
	if e, ok := node2.Get([]byte("post4")); !ok || !bytes.Equal(e.Value, []byte("v")) {
		t.Fatal("WAL-suffix entry lost across restart")
	}
	if e, ok := node2.Get([]byte("pre0")); !ok || e.Version != 1 {
		t.Fatal("snapshot entry lost or re-versioned across restart")
	}
}

func TestSnapshotCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")
	node, err := NewNode(NodeConfig{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.handleBatchPut(appendScan(nil, []keyedEntry{{key: []byte("k"), e: Entry{Value: []byte("v"), Version: 1}}})); err != nil {
		t.Fatal(err)
	}
	if err := node.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := walPath + ".snap"
	data, err := readFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := writeFile(snapPath, data); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(NodeConfig{WALPath: walPath}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NewNode over corrupt snapshot = %v, want ErrCorrupt", err)
	}
}

// TestWALBoundedUnderSustainedIngest: size-triggered snapshots must keep
// the log from growing without bound while writes keep arriving.
func TestWALBoundedUnderSustainedIngest(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")
	const threshold = 8 << 10 // 8 KiB: many snapshots over the run
	node, err := NewNode(NodeConfig{
		WALPath:       walPath,
		WALSync:       SyncOff, // bound the test's fsync count; durability is not under test here
		SnapshotBytes: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	var appended int64
	for i := 0; i < 2000; i++ {
		kv := keyedEntry{key: []byte(fmt.Sprintf("key-%d", i)), e: Entry{Value: bytes.Repeat([]byte("v"), 64), Version: uint64(i + 1)}}
		if _, err := node.handleBatchPut(appendScan(nil, []keyedEntry{kv})); err != nil {
			t.Fatal(err)
		}
		appended += int64(len(appendRecord(nil, kv.key, kv.e)))
	}
	if appended < 4*threshold {
		t.Fatalf("test bug: only %d bytes appended, need >> %d", appended, threshold)
	}
	// Snapshots run in the background; after ingest stops the log must
	// settle below the threshold.
	deadline := time.Now().Add(10 * time.Second)
	for node.wal.Size() >= threshold {
		if !time.Now().Before(deadline) {
			t.Fatalf("WAL still %d bytes (threshold %d) after ingest stopped", node.wal.Size(), threshold)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if node.Len() != 2000 {
		t.Fatalf("table has %d entries, want 2000", node.Len())
	}
	// And the bounded log still recovers the full table.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	node2, err := NewNode(NodeConfig{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if node2.Len() != 2000 {
		t.Fatalf("recovered %d entries, want 2000", node2.Len())
	}
}

// TestSnapshotTimer: a periodic snapshot loop truncates the WAL without
// any size trigger.
func TestSnapshotTimer(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")
	node, err := NewNode(NodeConfig{
		WALPath:       walPath,
		SnapshotBytes: -1, // disable the size trigger; only the timer runs
		SnapshotEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.handleBatchPut(appendScan(nil, []keyedEntry{{key: []byte("k"), e: Entry{Value: []byte("v"), Version: 1}}})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for node.wal.Size() != 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("periodic snapshot never truncated the WAL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := loadSnapshot(walPath + ".snap"); err != nil {
		t.Fatalf("periodic snapshot unreadable: %v", err)
	}
}

// TestSnapshotCountCannotSizeTheTable: the record count sits in a header
// no CRC covers, so a 12-byte file must not be able to make loadSnapshot
// allocate a table for a hundred million (or four billion) entries
// before it notices there are none.
func TestSnapshotCountCannotSizeTheTable(t *testing.T) {
	for _, count := range []uint32{0x04000000, 0xFFFFFFFF} {
		path := filepath.Join(t.TempDir(), "node.wal.snap")
		if err := writeFile(path, binary.BigEndian.AppendUint32(bytes.Clone(snapshotMagic), count)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := loadSnapshot(path)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count %#x over an empty body: %v, want ErrCorrupt", count, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("count %#x allocated %d bytes before failing", count, got)
		}
	}
}

// TestMalformedBatchPutAppliesNothing: a body whose second record is cut
// short is refused whole — the valid first record reaches neither the
// log nor the table.
func TestMalformedBatchPutAppliesNothing(t *testing.T) {
	node, err := NewNode(NodeConfig{WALPath: filepath.Join(t.TempDir(), "node.wal"), WALSync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	body := appendScan(nil, []keyedEntry{
		{key: []byte("key0"), e: Entry{Value: []byte("v"), Version: 1}},
		{key: []byte("key1"), e: Entry{Value: []byte("v"), Version: 1}},
	})
	size := node.wal.Size()
	if _, err := node.handleBatchPut(body[:len(body)-3]); !errors.Is(err, ErrProto) {
		t.Fatalf("truncated batch = %v, want ErrProto", err)
	}
	if _, ok := node.Get([]byte("key0")); ok {
		t.Fatal("the valid record of a malformed batch was applied")
	}
	if got := node.wal.Size(); got != size {
		t.Fatalf("a malformed batch grew the WAL from %d to %d bytes", size, got)
	}
}

// TestBatchPutFailedWALAppliesNothing: a kv.batchput whose WAL append
// fails is refused whole — no key of the batch reaches the table, so a
// later kv.batchhas reports every key absent and the counters stay put.
// Applying the batch before the append would leave in memory what a
// restart forgets.
func TestBatchPutFailedWALAppliesNothing(t *testing.T) {
	node, err := NewNode(NodeConfig{WALPath: filepath.Join(t.TempDir(), "node.wal"), WALSync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	nw := transport.NewMemNetwork()
	l, err := nw.Listen("kv0")
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(l)
	conn, err := nw.Dial(context.Background(), "kv0")
	if err != nil {
		t.Fatal(err)
	}
	cl := transport.NewClient(conn)
	defer cl.Close()

	keys := [][]byte{[]byte("key0"), []byte("key1"), []byte("key2")}
	var ents []keyedEntry
	for _, k := range keys {
		ents = append(ents, keyedEntry{key: k, e: Entry{Value: []byte("v"), Version: 1}})
	}
	node.wal.kill()
	before := node.Stats()
	if _, err := cl.Call(context.Background(), methodBatchPut, appendScan(nil, ents)); err == nil {
		t.Fatal("kv.batchput succeeded on a dead WAL")
	}
	if after := node.Stats(); after != before {
		t.Fatalf("a refused batch changed the stats: %+v -> %+v", before, after)
	}
	resp, err := cl.Call(context.Background(), methodBatchHas, encodeKeyList(keys))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(keys) {
		t.Fatalf("kv.batchhas answered %d of %d keys", len(resp), len(keys))
	}
	for i, b := range resp {
		if b != 0 {
			t.Errorf("key %q of a refused batch is present", keys[i])
		}
	}
}

// TestBatchPutIsDurableAsAUnit: under SyncAlways an acknowledged batch —
// logged with one append and one fsync — survives a kill entire.
func TestBatchPutIsDurableAsAUnit(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "node.wal")
	node, err := NewNode(NodeConfig{WALPath: walPath, WALSync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var ents []keyedEntry
	for i := 0; i < 64; i++ {
		ents = append(ents, keyedEntry{key: []byte(fmt.Sprintf("k%02d", i)), e: Entry{Value: []byte("v"), Version: uint64(i + 1)}})
	}
	if _, err := node.handleBatchPut(appendScan(nil, ents)); err != nil {
		t.Fatal(err)
	}
	node.Kill()
	node2, err := NewNode(NodeConfig{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if rs := node2.RecoveryStats(); node2.Len() != 64 || rs.Records != 64 || rs.Discarded() != 0 {
		t.Fatalf("recovered %d entries, %+v; want the whole batch of 64", node2.Len(), rs)
	}
}

// TestRecoveryScansTheLogOnce: the open that positions the log for
// append is the replay — every record reaches the table callback exactly
// once — and a node cut down mid-record reports the torn tail and serves
// the prefix.
func TestRecoveryScansTheLogOnce(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWALOptions(WALOptions{Path: walPath})
	if err != nil {
		t.Fatal(err)
	}
	const records = 50
	for i := 0; i < records; i++ { // 10 keys, 5 versions each: callbacks outnumber entries
		if err := w.Append([]byte(fmt.Sprintf("k%d", i%10)), Entry{Value: []byte("v"), Version: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	applied := 0
	w, stats, err := openWAL(WALOptions{Path: walPath}, func([]byte, Entry) { applied++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if applied != records || stats.Records != records {
		t.Fatalf("one open applied %d records (stats %+v), want %d", applied, stats, records)
	}

	data, err := readFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(walPath, data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	rs := node.RecoveryStats()
	if rs.Records != records-1 || rs.TornBytes == 0 || rs.CorruptBytes != 0 || node.Len() != 10 {
		t.Fatalf("recovery over a torn tail: %+v, %d entries; want %d records, a torn tail, 10 entries", rs, node.Len(), records-1)
	}
	if e, ok := node.Get([]byte("k9")); !ok || e.Version != records-10 {
		t.Fatalf("k9 = %+v, %v; want the version before the torn record", e, ok)
	}
	if got := node.wal.Size(); got != rs.Bytes {
		t.Fatalf("log resumes at %d, valid prefix is %d", got, rs.Bytes)
	}
}
