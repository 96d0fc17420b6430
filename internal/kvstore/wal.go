package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// WAL is the append-only write-ahead log giving a storage node durability
// across restarts: a sequence of framed records (appendRecord). Replay
// stops at the first torn or corrupt record; opening the log for
// appending truncates the file back to the last valid record, so
// post-crash appends land on a clean tail and replay correctly on the
// next restart.
type WAL struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	path     string
	policy   SyncPolicy
	size     int64 // bytes of appended (valid) records
	dirty    bool  // buffered or un-fsynced bytes outstanding
	syncErr  error // sticky: a failed fsync leaves disk state unknown
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

// maxWALRecord bounds a single record (16 MiB). Index entries are tiny
// chunk-metadata blobs; a length prefix beyond this is corruption and
// must not drive a giant allocation during replay.
const maxWALRecord = 16 << 20

// WALOptions configures OpenWALOptions.
type WALOptions struct {
	// Path locates the log file (created if missing).
	Path string
	// Sync is the fsync policy; the zero value is SyncInterval.
	Sync SyncPolicy
	// SyncEvery is the group-commit interval under SyncInterval;
	// defaults to DefaultSyncEvery.
	SyncEvery time.Duration
}

// OpenWAL opens (creating if needed) the log at path for appending with
// the default interval group-commit policy.
func OpenWAL(path string) (*WAL, error) {
	return OpenWALOptions(WALOptions{Path: path})
}

// OpenWALOptions opens the log, scans it for the last valid record and
// truncates any torn or corrupt tail so new appends extend a replayable
// prefix. Under SyncInterval a flusher goroutine is started; it stops on
// Close.
func OpenWALOptions(opts WALOptions) (*WAL, error) {
	stats, err := ReplayWAL(opts.Path, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(opts.Path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	if fi.Size() > stats.Bytes {
		// Drop the unreplayable tail. Without this, post-crash appends
		// land behind corrupt bytes and are lost to every future replay.
		if err := f.Truncate(stats.Bytes); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("kvstore: truncate wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("kvstore: truncate wal tail: %w", err)
		}
	}
	if _, err := f.Seek(stats.Bytes, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	w := &WAL{
		f:      f,
		w:      bufio.NewWriter(f),
		path:   opts.Path,
		policy: opts.Sync,
		size:   stats.Bytes,
	}
	if opts.Sync == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop(opts.SyncEvery)
	}
	return w, nil
}

// Append records one key+entry. Under SyncAlways the record is flushed
// and fsynced before Append returns; under SyncInterval it becomes
// durable at the next group commit; under SyncOff when the caller syncs.
func (w *WAL) Append(key []byte, e Entry) error {
	rec := appendRecord(nil, key, e)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: wal append after close", ErrClosed)
	}
	if w.syncErr != nil {
		// A failed fsync leaves an unknown on-disk state; acknowledging
		// more writes on top of it would fabricate durability.
		return w.syncErr
	}
	if _, err := w.w.Write(rec); err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	w.size += int64(len(rec))
	w.dirty = true
	if w.policy == SyncAlways {
		return w.syncLocked()
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
			w.mu.Lock()
			if !w.closed && w.dirty && w.syncErr == nil {
				// The error is sticky in syncErr; the next Append
				// surfaces it to a caller who can act on it.
				//lint:ignore errlost syncLocked records the failure in w.syncErr for the next Append to return
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		case <-w.stop:
			return
		}
	}
}

// syncLocked flushes buffered records and fsyncs. Callers hold w.mu.
// Failures are sticky: the log refuses further appends.
func (w *WAL) syncLocked() error {
	if err := w.w.Flush(); err != nil {
		w.syncErr = fmt.Errorf("kvstore: wal flush: %w", err)
		return w.syncErr
	}
	if err := w.f.Sync(); err != nil {
		w.syncErr = fmt.Errorf("kvstore: wal fsync: %w", err)
		return w.syncErr
	}
	w.dirty = false
	return nil
}

// Sync forces a flush+fsync of everything appended so far.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: wal sync after close", ErrClosed)
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	return w.syncLocked()
}

// Size returns the log's current length in bytes (valid prefix plus
// appends this session) — the snapshot trigger input.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
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
	w.w.Reset(w.f) // discard buffered pre-snapshot records
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("kvstore: wal truncate: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("kvstore: wal truncate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("kvstore: wal truncate: %w", err)
	}
	w.size = 0
	w.dirty = false
	// The on-disk log is empty and consistent again; a previous fsync
	// failure no longer taints anything still in the file.
	w.syncErr = nil
	return nil
}

// Close stops the flusher, flushes and fsyncs outstanding records, and
// closes the file — exactly once; repeated Closes return the first
// result. A flush failure keeps its context and still closes the file.
func (w *WAL) Close() error {
	w.closeOnce.Do(func() {
		if w.stop != nil {
			close(w.stop)
			<-w.done
		}
		w.mu.Lock()
		ferr := w.syncErr
		if ferr == nil {
			ferr = w.syncLocked()
		}
		cerr := w.f.Close()
		w.closed = true
		switch {
		case ferr != nil && cerr != nil:
			w.closeErr = fmt.Errorf("kvstore: wal close: %w (and close: %v)", ferr, cerr)
		case ferr != nil:
			w.closeErr = fmt.Errorf("kvstore: wal close: %w", ferr)
		case cerr != nil:
			w.closeErr = fmt.Errorf("kvstore: wal close: %w", cerr)
		}
		w.mu.Unlock()
	})
	return w.closeErr
}

// kill simulates ungraceful process death for chaos tests: buffered
// user-space records are dropped and nothing is flushed or fsynced —
// what SIGKILL does to a process with unflushed buffers.
func (w *WAL) kill() {
	w.closeOnce.Do(func() {
		if w.stop != nil {
			close(w.stop)
			<-w.done
		}
		w.mu.Lock()
		//lint:ignore errlost simulated crash: losing the close error is the point
		_ = w.f.Close()
		w.closed = true
		w.mu.Unlock()
	})
}

// ReplayStats describes what a log scan recovered and what it had to
// discard.
type ReplayStats struct {
	// Records is how many intact records the valid prefix holds.
	Records int
	// Bytes is the valid prefix length — the offset appends resume at.
	Bytes int64
	// TornBytes counts trailing bytes discarded because the final record
	// was incomplete: the expected artifact of a crash mid-append.
	TornBytes int64
	// CorruptBytes counts bytes discarded because a fully-present record
	// failed its CRC or decode — bit rot or external damage, not a torn
	// write. Everything after the corrupt record is unreachable and
	// counted here too.
	CorruptBytes int64
}

// Discarded returns the total bytes the scan could not replay.
func (s ReplayStats) Discarded() int64 { return s.TornBytes + s.CorruptBytes }

// ReplayWAL streams every intact record of the log at path into apply
// (when non-nil), classifies the stop condition and measures the valid
// prefix. A missing file is not an error (fresh node). Replay is
// read-only; OpenWAL performs the tail truncation.
func ReplayWAL(path string, apply func(key []byte, e Entry)) (ReplayStats, error) {
	var stats ReplayStats
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return stats, nil
	}
	if err != nil {
		return stats, fmt.Errorf("kvstore: replay wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return stats, fmt.Errorf("kvstore: replay wal: %w", err)
	}
	total := fi.Size()
	r := bufio.NewReader(f)
	for {
		key, e, size, st := readRecord(r)
		switch st {
		case recordEOF:
			return stats, nil
		case recordTorn:
			stats.TornBytes = total - stats.Bytes
			return stats, nil
		case recordCorrupt:
			stats.CorruptBytes = total - stats.Bytes
			return stats, nil
		}
		if apply != nil {
			apply(key, e)
		}
		stats.Records++
		stats.Bytes += size
	}
}

// --- framed records ------------------------------------------------------
//
// The WAL and the snapshot file hold the same record:
//
//	u32 length | u32 crc32(payload) | payload (one encoded key+entry)

// appendRecord appends one framed record to dst.
func appendRecord(dst []byte, key []byte, e Entry) []byte {
	start := len(dst)
	dst = slices.Grow(dst, 8+16+len(key)+len(e.Value))
	dst = binary.BigEndian.AppendUint32(dst, 0) // length, set below
	dst = binary.BigEndian.AppendUint32(dst, 0) // crc32, set below
	dst = encodeEntry(dst, key, e)
	payload := dst[start+8:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// recordStatus is how one readRecord call ended. What torn and corrupt
// mean for the file is the caller's verdict: a WAL truncates a torn tail
// and counts corruption, a snapshot treats both as ErrCorrupt.
type recordStatus int

const (
	recordOK      recordStatus = iota
	recordEOF                  // no bytes left: the clean end of the file
	recordTorn                 // header or payload cut short
	recordCorrupt              // impossible length, CRC mismatch or payload that is not exactly one entry
)

// readRecord reads one framed record and reports the bytes it occupies.
func readRecord(r *bufio.Reader) (key []byte, e Entry, size int64, st recordStatus) {
	var hdr [8]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n > 0 {
			return nil, Entry{}, 0, recordTorn
		}
		return nil, Entry{}, 0, recordEOF
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxWALRecord {
		// A length no writer produces, and one that must not size the
		// allocation below.
		return nil, Entry{}, 0, recordCorrupt
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, Entry{}, 0, recordTorn
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, Entry{}, 0, recordCorrupt
	}
	key, e, rest, err := decodeEntry(payload)
	if err != nil || len(rest) != 0 {
		// CRC-valid bytes written by something else.
		return nil, Entry{}, 0, recordCorrupt
	}
	return key, e, int64(8 + len(payload)), recordOK
}
