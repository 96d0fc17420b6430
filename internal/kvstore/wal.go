package kvstore

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"efdedup/internal/reclog"
)

// WAL is the write-ahead log giving a storage node durability across
// restarts: a reclog.Log whose records are encoded key+entry pairs, plus
// what a log alone does not decide — when appended records are fsynced
// (SyncPolicy, the group-commit flusher), a mutex for concurrent
// appenders, and close-exactly-once. Framing, tail truncation on open
// and the sticky failure after a failed write or fsync are reclog's.
type WAL struct {
	mu       sync.Mutex
	log      *reclog.Log
	policy   SyncPolicy
	closed   bool
	closeErr error

	closeOnce sync.Once
	stop      chan struct{} // interval flusher shutdown
	done      chan struct{}
}

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncInterval (the default) groups commits: a background flusher
	// fsyncs every SyncEvery, so an acknowledged put may lose at most
	// one interval of records on power failure.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before Append returns: an acknowledged put is
	// durable on this replica.
	SyncAlways
	// SyncOff never fsyncs automatically; callers own Sync. This is the
	// pre-durability behaviour and is only safe when replication or an
	// external snapshot covers the loss window.
	SyncOff
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the -wal-sync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("%w: unknown wal sync policy %q (want always, interval or off)", ErrConfig, s)
	}
}

// DefaultSyncEvery is the group-commit interval when none is configured.
const DefaultSyncEvery = 50 * time.Millisecond

// WALOptions configures OpenWALOptions.
type WALOptions struct {
	// Path locates the log file (created by the first append if missing).
	Path string
	// Sync is the fsync policy; the zero value is SyncInterval.
	Sync SyncPolicy
	// SyncEvery is the group-commit interval under SyncInterval;
	// defaults to DefaultSyncEvery.
	SyncEvery time.Duration
}

// OpenWALOptions opens the log, truncating any torn or corrupt tail so
// new appends extend a replayable prefix. Under SyncInterval a flusher
// goroutine is started; it stops on Close.
func OpenWALOptions(opts WALOptions) (*WAL, error) {
	w, _, err := openWAL(opts, nil)
	return w, err
}

// openWAL opens the log in one pass over the file: every intact record
// goes to apply (when non-nil) on the way to finding the valid prefix.
func openWAL(opts WALOptions, apply func(key []byte, e Entry)) (*WAL, ReplayStats, error) {
	log, stats, err := reclog.Open(opts.Path, nil, replayInto(apply))
	if err != nil {
		return nil, stats, fmt.Errorf("kvstore: open wal: %w", err)
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	w := &WAL{log: log, policy: opts.Sync}
	if opts.Sync == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop(opts.SyncEvery)
	}
	return w, stats, nil
}

// Append records one key+entry. Under SyncAlways the record is flushed
// and fsynced before Append returns; under SyncInterval it becomes
// durable at the next group commit; under SyncOff when the caller syncs.
func (w *WAL) Append(key []byte, e Entry) error {
	return w.appendFrames(appendRecord(nil, key, e))
}

// appendFrames logs a run of framed records under one hold of the mutex
// and, under SyncAlways, one fsync: a batch is durable as a unit.
func (w *WAL) appendFrames(frames []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: wal append after close", ErrClosed)
	}
	// After a failed write or fsync the log refuses: acknowledging more
	// writes on top of an unknown on-disk state would fabricate durability.
	if _, err := w.log.Append(frames); err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	if w.policy == SyncAlways {
		return w.log.Sync()
	}
	return nil
}

// flushLoop is the SyncInterval group-commit goroutine.
func (w *WAL) flushLoop(every time.Duration) {
	defer close(w.done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// A no-op with nothing new appended. A failure is sticky in
			// the log; the next Append surfaces it to a caller who can act
			// on it.
			_ = w.Sync()
		case <-w.stop:
			return
		}
	}
}

// Sync forces a flush+fsync of everything appended so far.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: wal sync after close", ErrClosed)
	}
	return w.log.Sync()
}

// Size returns the log's current length in bytes (valid prefix plus
// appends this session) — the snapshot trigger input.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Size()
}

// Truncate resets the log to empty after its contents have been made
// durable elsewhere (a snapshot). The caller must exclude concurrent
// appenders, or records between the snapshot copy and the truncation
// would be lost.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: wal truncate after close", ErrClosed)
	}
	// Buffered pre-snapshot records go too, and so does a sticky failure.
	if err := w.log.Reset(); err != nil {
		return fmt.Errorf("kvstore: wal truncate: %w", err)
	}
	return nil
}

// Close stops the flusher, flushes and fsyncs outstanding records, and
// closes the file — exactly once; repeated Closes return the first
// result. A flush failure keeps its context and still closes the file.
func (w *WAL) Close() error {
	w.shutdown(true)
	return w.closeErr
}

// kill simulates ungraceful process death for chaos tests: buffered
// user-space records are dropped and nothing is flushed or fsynced —
// what SIGKILL does to a process with unflushed buffers.
func (w *WAL) kill() { w.shutdown(false) }

func (w *WAL) shutdown(graceful bool) {
	w.closeOnce.Do(func() {
		if w.stop != nil {
			close(w.stop)
			<-w.done
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		w.closed = true
		if !graceful {
			// A simulated crash: losing the close error is the point.
			_ = w.log.Abandon()
		} else if err := w.log.Close(); err != nil {
			w.closeErr = fmt.Errorf("kvstore: wal close: %w", err)
		}
	})
}

// ReplayStats describes what a log scan recovered and what it had to
// discard: a torn tail is the expected artifact of a crash mid-append,
// corruption is a fully present record that fails its CRC or does not
// decode as exactly one entry.
type ReplayStats = reclog.Stats

// replayInto adapts apply (when non-nil) to a log scan: reclog.Scan(path,
// nil, replayInto(apply)) replays a WAL read-only.
func replayInto(apply func(key []byte, e Entry)) func(payload []byte) bool {
	return func(payload []byte) bool {
		key, e, ok := recordEntry(payload)
		if ok && apply != nil {
			apply(key, e)
		}
		return ok
	}
}

// recordEntry returns the entry a record payload holds. CRC-valid bytes
// that are not exactly one entry were written by something else: corrupt,
// to whoever scans them. The value is a copy: a table entry pins no file.
func recordEntry(payload []byte) (key []byte, e Entry, ok bool) {
	key, e, rest, err := decodeEntry(payload)
	if err != nil || len(rest) != 0 {
		return nil, Entry{}, false
	}
	e.Value = bytes.Clone(e.Value)
	return key, e, true
}

// appendRecord appends one record — a frame holding one encoded
// key+entry, the unit of the WAL and of the snapshot file — to dst.
func appendRecord(dst []byte, key []byte, e Entry) []byte {
	start := len(dst)
	dst = slices.Grow(dst, reclog.HeaderSize+16+len(key)+len(e.Value))
	dst = reclog.BeginFrame(dst)
	dst = encodeEntry(dst, key, e)
	reclog.EndFrame(dst[start:])
	return dst
}
