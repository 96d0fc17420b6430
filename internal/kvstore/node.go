package kvstore

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"efdedup/internal/codec"
	"efdedup/internal/metrics"
	"efdedup/internal/reclog"
	"efdedup/internal/transport"
)

// RPC method names served by a storage node.
const (
	methodBatchHas = "kv.batchhas"
	methodBatchPut = "kv.batchput"
	methodStats    = "kv.stats"
	methodDigest   = "kv.digest"
	methodPull     = "kv.pull"
)

// NodeStats counts operations served by a storage node.
type NodeStats struct {
	Gets    int64
	Puts    int64
	Hits    int64
	Misses  int64
	Entries int64
}

// DefaultSnapshotBytes is the WAL size that triggers a snapshot +
// truncation when NodeConfig.SnapshotBytes is zero.
const DefaultSnapshotBytes = 8 << 20

// NodeConfig configures a storage node.
type NodeConfig struct {
	// WALPath enables durability when non-empty: the node recovers as
	// snapshot-then-WAL-suffix on startup and logs every write.
	WALPath string
	// WALSync selects the log's fsync policy; the zero value is
	// SyncInterval (group commit).
	WALSync SyncPolicy
	// WALSyncEvery is the group-commit interval under SyncInterval;
	// defaults to DefaultSyncEvery.
	WALSyncEvery time.Duration
	// SnapshotPath overrides where table snapshots live. Defaults to
	// WALPath + ".snap".
	SnapshotPath string
	// SnapshotBytes triggers a snapshot (and WAL truncation) whenever
	// the log exceeds this size, keeping both recovery time and log
	// size bounded under sustained ingest. 0 means DefaultSnapshotBytes;
	// negative disables size-triggered snapshots.
	SnapshotBytes int64
	// SnapshotEvery additionally snapshots on a timer when positive.
	SnapshotEvery time.Duration
	// Metrics receives per-method serve-latency histograms and the
	// entries gauge. Nil records into metrics.Default().
	Metrics *metrics.Registry
}

// Node is one storage replica of the dedup index. It serves the kv.*
// methods over the transport protocol.
type Node struct {
	mu    sync.RWMutex
	table map[string]Entry

	// putMu serializes the WAL-append + table-apply pair against
	// snapshots: writers hold it shared, Snapshot holds it exclusively
	// while it copies the table and truncates the log, so no
	// acknowledged record can fall between a snapshot's table copy and
	// the truncation. Lock order: putMu before mu.
	putMu sync.RWMutex

	wal       *WAL
	snapPath  string
	snapBytes int64
	replay    ReplayStats

	snapping atomic.Bool    // single-flight for size-triggered snapshots
	snapWG   sync.WaitGroup // in-flight background snapshots
	snapStop chan struct{}  // periodic snapshot loop shutdown
	snapDone chan struct{}

	gets, puts, hits, misses atomic.Int64

	reg       *metrics.Registry
	snapFails *metrics.Counter
	snaps     *metrics.Counter
	server    *transport.Server
	listener  net.Listener
	serveErr  chan error
	closeOnce sync.Once
	closeErr  error
}

// NewNode creates a storage node. With a WALPath it recovers durable
// state as snapshot first, then the WAL suffix written after it, and
// reports what the replay recovered and discarded via metrics and
// RecoveryStats.
func NewNode(cfg NodeConfig) (*Node, error) {
	n := &Node{
		table:    make(map[string]Entry),
		serveErr: make(chan error, 1),
	}
	n.reg = cfg.Metrics
	if n.reg == nil {
		n.reg = metrics.Default()
	}
	n.snaps = n.reg.Counter("kvstore_node_snapshots_total")
	n.snapFails = n.reg.Counter("kvstore_node_snapshot_failures_total")
	if cfg.WALPath != "" {
		n.snapPath = cfg.SnapshotPath
		if n.snapPath == "" {
			n.snapPath = cfg.WALPath + ".snap"
		}
		n.snapBytes = cfg.SnapshotBytes
		if n.snapBytes == 0 {
			n.snapBytes = DefaultSnapshotBytes
		}
		table, err := loadSnapshot(n.snapPath)
		if err != nil {
			return nil, err
		}
		if table != nil {
			n.table = table
		}
		// One pass over the log replays it into the table and finds the
		// offset appends resume at.
		wal, stats, err := openWAL(WALOptions{
			Path:      cfg.WALPath,
			Sync:      cfg.WALSync,
			SyncEvery: cfg.WALSyncEvery,
		}, func(key []byte, e Entry) {
			n.applyPut(key, e)
		})
		if err != nil {
			return nil, err
		}
		n.replay = stats
		n.reg.Counter("kvstore_wal_replay_records_total").Add(int64(stats.Records))
		n.reg.Counter("kvstore_wal_replay_torn_bytes_total").Add(stats.TornBytes)
		n.reg.Counter("kvstore_wal_replay_corrupt_bytes_total").Add(stats.CorruptBytes)
		n.wal = wal
		if cfg.SnapshotEvery > 0 {
			n.snapStop = make(chan struct{})
			n.snapDone = make(chan struct{})
			go n.snapshotLoop(cfg.SnapshotEvery)
		}
	}
	n.server = transport.NewServer()
	n.handle(methodBatchHas, n.handleBatchHas)
	n.handle(methodBatchPut, n.handleBatchPut)
	n.handle(methodStats, n.handleStats)
	n.handle(methodDigest, n.handleDigest)
	n.handle(methodPull, n.handlePull)
	return n, nil
}

// RecoveryStats reports what the startup replay recovered and discarded.
func (n *Node) RecoveryStats() ReplayStats { return n.replay }

// handle registers a handler wrapped with serve-latency and failure
// instrumentation — the server half of the paper's lookup-overhead V(P)
// measurement (Fig. 5b): how long an index RPC spends inside the node,
// as opposed to on the WAN.
func (n *Node) handle(method string, h func([]byte) ([]byte, error)) {
	hist := n.reg.DurationHistogram("kvstore_node_rpc_seconds", "method", method)
	fails := n.reg.Counter("kvstore_node_rpc_failures_total", "method", method)
	n.server.Handle(method, func(body []byte) ([]byte, error) {
		sp := metrics.StartTimer(hist)
		resp, err := h(body)
		sp.End()
		if err != nil {
			fails.Inc()
		}
		return resp, err
	})
}

// Serve starts accepting connections on l in a background goroutine and
// returns immediately.
func (n *Node) Serve(l net.Listener) {
	n.listener = l
	n.reg.GaugeFunc("kvstore_node_entries", func() float64 {
		return float64(n.Len())
	}, "addr", l.Addr().String())
	go func() {
		n.serveErr <- n.server.Serve(l)
	}()
}

// Addr returns the listen address, or "" before Serve.
func (n *Node) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Close stops serving, joins the snapshot loop and any in-flight
// snapshot, then syncs and closes the WAL — exactly once; repeated
// Closes return the first result.
func (n *Node) Close() error {
	n.shutdown(true)
	return n.closeErr
}

// Kill simulates ungraceful process death for chaos tests: the server
// stops, background loops are joined (an in-process test cannot tear a
// goroutine mid-write), and the WAL is abandoned without flush or fsync,
// dropping its user-space buffers exactly as SIGKILL would.
func (n *Node) Kill() {
	n.shutdown(false)
}

func (n *Node) shutdown(graceful bool) {
	n.closeOnce.Do(func() {
		err := n.server.Close()
		if n.snapStop != nil {
			close(n.snapStop)
			<-n.snapDone
		}
		n.snapWG.Wait()
		if n.wal != nil {
			if graceful {
				if werr := n.wal.Close(); err == nil {
					err = werr
				}
			} else {
				n.wal.kill()
			}
		}
		n.closeErr = err
	})
}

// snapshotLoop snapshots on a timer until Close.
func (n *Node) snapshotLoop(every time.Duration) {
	defer close(n.snapDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Failures are counted; the loop's job is to keep trying.
			_ = n.Snapshot()
		case <-n.snapStop:
			return
		}
	}
}

// maybeSnapshot triggers one background snapshot when the WAL has grown
// past the configured threshold. Single-flight: the hot path pays one
// atomic load while a snapshot is running.
func (n *Node) maybeSnapshot() {
	if n.wal == nil || n.snapBytes <= 0 || n.wal.Size() < n.snapBytes {
		return
	}
	if !n.snapping.CompareAndSwap(false, true) {
		return
	}
	n.snapWG.Add(1)
	go func() {
		defer n.snapWG.Done()
		err := n.Snapshot()
		n.snapping.Store(false)
		// A failure is recorded in kvstore_node_snapshot_failures_total and
		// the next put retries. After a success, look again: puts that ran
		// between the snapshot's unlock and the flag's reset skipped their
		// trigger, and may have been the last ones.
		if err == nil {
			n.maybeSnapshot()
		}
	}()
}

// Snapshot durably writes the current table and truncates the WAL, so
// recovery replays snapshot + a short suffix instead of the full
// history. Writers are paused for the duration (the table is small —
// hashes, not chunks); reads are only blocked for the in-memory copy.
func (n *Node) Snapshot() error {
	if n.wal == nil {
		return fmt.Errorf("%w: snapshots need a WAL-backed node", ErrConfig)
	}
	n.putMu.Lock()
	defer n.putMu.Unlock()
	n.mu.RLock()
	table := make(map[string]Entry, len(n.table))
	for k, e := range n.table {
		table[k] = e
	}
	n.mu.RUnlock()
	if err := writeSnapshot(n.snapPath, table); err != nil {
		n.snapFails.Inc()
		return err
	}
	if err := n.wal.Truncate(); err != nil {
		n.snapFails.Inc()
		return err
	}
	n.snaps.Inc()
	return nil
}

// Stats returns a snapshot of operation counters.
func (n *Node) Stats() NodeStats {
	n.mu.RLock()
	entries := int64(len(n.table))
	n.mu.RUnlock()
	return NodeStats{
		Gets:    n.gets.Load(),
		Puts:    n.puts.Load(),
		Hits:    n.hits.Load(),
		Misses:  n.misses.Load(),
		Entries: entries,
	}
}

// Len returns the number of stored entries.
func (n *Node) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.table)
}

// applyPut installs an entry under last-write-wins and reports whether it
// replaced the stored version.
func (n *Node) applyPut(key []byte, e Entry) bool {
	k := string(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.table[k]; ok && old.Version >= e.Version {
		return false
	}
	n.table[k] = e
	return true
}

// Get reads key from this replica's table, in process — no RPC, no
// counters.
func (n *Node) Get(key []byte) (Entry, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.table[string(key)]
	return e, ok
}

// --- handlers ----------------------------------------------------------

// handleBatchHas answers membership for a key list with one byte per key.
func (n *Node) handleBatchHas(body []byte) ([]byte, error) {
	keys, err := decodeKeyList(body)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(keys))
	n.mu.RLock()
	for i, k := range keys {
		if _, ok := n.table[string(k)]; ok {
			out[i] = 1
		}
	}
	n.mu.RUnlock()
	n.gets.Add(int64(len(keys)))
	for _, b := range out {
		if b == 1 {
			n.hits.Add(1)
		} else {
			n.misses.Add(1)
		}
	}
	return out, nil
}

// handleBatchPut stores a count-prefixed sequence of key+entry records.
// It is the only handler that writes, and it follows the cloud's upload
// protocol: validate the whole body (a malformed one changes nothing),
// append the batch to the WAL — one lock, one buffer and, under
// SyncAlways, one fsync — and only then apply it to the table. Decoding
// the body twice is cheaper than holding it decoded.
func (n *Node) handleBatchPut(body []byte) ([]byte, error) {
	r := codec.NewReader(body, ErrProto)
	count := r.Count(16) // an entry is at least two length prefixes and a version
	var frames []byte
	if n.wal != nil {
		frames = make([]byte, 0, len(body)+reclog.HeaderSize*count)
	}
	for range count {
		key, e := readEntry(&r)
		if n.wal != nil {
			frames = appendRecord(frames, key, e)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kvstore: batch: %w", err)
	}
	n.putMu.RLock()
	if n.wal != nil {
		if err := n.wal.appendFrames(frames); err != nil {
			n.putMu.RUnlock()
			return nil, err
		}
	}
	r = codec.NewReader(body, ErrProto)
	r.Count(16) // the pass above checked every entry
	for range count {
		n.applyPut(readEntry(&r))
	}
	n.putMu.RUnlock()
	n.puts.Add(int64(count))
	n.maybeSnapshot()
	return nil, nil
}

func (n *Node) handleStats([]byte) ([]byte, error) {
	return encodeStats(n.Stats()), nil
}

// encodeStats serializes node counters as the five u64 words
// decodeStats reads back.
func encodeStats(s NodeStats) []byte {
	out := make([]byte, 0, 40)
	out = codec.U64(out, uint64(s.Gets))
	out = codec.U64(out, uint64(s.Puts))
	out = codec.U64(out, uint64(s.Hits))
	out = codec.U64(out, uint64(s.Misses))
	out = codec.U64(out, uint64(s.Entries))
	return out
}

func decodeStats(body []byte) (NodeStats, error) {
	r := codec.NewReader(body, ErrProto)
	st := NodeStats{
		Gets:    int64(r.U64()),
		Puts:    int64(r.U64()),
		Hits:    int64(r.U64()),
		Misses:  int64(r.U64()),
		Entries: int64(r.U64()),
	}
	return st, r.End()
}
