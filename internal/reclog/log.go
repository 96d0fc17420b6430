package reclog

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrMagic is returned by Open and Scan for a file that does not start
// with the expected magic: not a torn write, not a damaged tail, but a
// file of another kind or format version, which is never truncated.
var ErrMagic = errors.New("reclog: wrong magic")

// Stats describes what a scan of a log recovered and what it could not.
// Bytes + TornBytes + CorruptBytes is the file's length.
type Stats struct {
	// Records is how many intact records the valid prefix holds, and
	// Bytes its length, magic included — the offset appends resume at.
	Records int
	Bytes   int64
	// TornBytes counts trailing bytes discarded because the final record
	// (or the magic) was incomplete: what a crash mid-append leaves.
	TornBytes int64
	// CorruptBytes counts bytes discarded because a fully present record
	// failed its length or CRC check or the caller rejected its payload —
	// damage, not a torn write — plus the unreachable bytes after it.
	CorruptBytes int64
}

// Discarded returns the total bytes the scan could not replay.
func (s Stats) Discarded() int64 { return s.TornBytes + s.CorruptBytes }

// Scan is the one replay loop. It reads the log at path — whole: a log's
// owner rolls it over (snapshot, seal) long before its size matters —
// checks the magic, hands every intact payload to fn in order, and
// classifies what stopped it; fn returning false rejects a payload as
// corrupt. Nothing is written. A missing file is an empty log.
func Scan(path string, magic []byte, fn func(payload []byte) bool) (Stats, error) {
	var st Stats
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return st, err
	}
	if !bytes.HasPrefix(magic, data[:min(len(data), len(magic))]) {
		return st, fmt.Errorf("%w: %s", ErrMagic, path)
	}
	if len(data) < len(magic) {
		st.TornBytes = int64(len(data))
		return st, nil
	}
	st.Bytes = int64(len(magic))
	for {
		payload, n, status := Next(data[st.Bytes:])
		if status == OK && !fn(payload) {
			status = Corrupt
		}
		switch status {
		case OK:
			st.Records++
			st.Bytes += int64(n)
			continue
		case Torn:
			st.TornBytes = int64(len(data)) - st.Bytes
		case Corrupt:
			st.CorruptBytes = int64(len(data)) - st.Bytes
		}
		return st, nil
	}
}

// Log is an append-only file of frames behind an optional magic. The
// file exists only while it holds something: it is created, and its
// directory entry made durable, by the first write.
type Log struct {
	path   string
	magic  []byte
	f      *os.File // nil while the file does not exist
	size   int64    // file bytes plus buffered bytes
	synced int64    // size at the last fsync
	buf    []byte   // frames not yet written
	err    error    // first write, fsync or seal failure; sticky until Reset
}

// maxBuffered is how many appended bytes a Log holds before it writes
// them out unasked, so a caller that rarely syncs holds bounded memory.
const maxBuffered = 1 << 20

// Open replays the log at path in one pass, as Scan does, cuts the file
// back to its valid prefix — fsynced, so that later appends never land
// behind bytes a replay cannot cross — and returns it positioned for
// append.
func Open(path string, magic []byte, fn func(payload []byte) bool) (*Log, Stats, error) {
	st, err := Scan(path, magic, fn)
	if err != nil {
		return nil, st, err
	}
	l := &Log{path: path, magic: magic, size: st.Bytes, synced: st.Bytes}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return l, st, nil
	}
	if err == nil && st.Discarded() > 0 {
		if err = f.Truncate(st.Bytes); err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close() // the truncation's failure is the one to report
		}
	}
	if err != nil {
		return nil, st, err
	}
	l.f = f
	return l, st, nil
}

// Size is the log's length in bytes, buffered appends included.
func (l *Log) Size() int64 { return l.size }

// Append buffers frames — one or more whole frames — at the end of the
// log and returns the offset of the first. They may be lost in a crash
// until Sync returns.
func (l *Log) Append(frames []byte) (off int64, err error) {
	if l.err != nil {
		return 0, l.err
	}
	if l.size == 0 {
		l.buf = append(l.buf, l.magic...)
		l.size = int64(len(l.magic))
	}
	off = l.size
	l.buf = append(l.buf, frames...)
	l.size += int64(len(frames))
	if len(l.buf) >= maxBuffered {
		l.err = l.flush()
	}
	return off, l.err
}

// flush hands the buffered frames to the file with one write. After a
// failure the file's state is unknown; callers make it sticky in l.err.
func (l *Log) flush() (err error) {
	if l.f == nil {
		if l.f, err = os.OpenFile(l.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return err
		}
		if err = SyncDir(filepath.Dir(l.path)); err != nil {
			return err
		}
	}
	_, err = l.f.Write(l.buf)
	l.buf = l.buf[:0]
	return err
}

// Sync makes every appended frame durable, with one write and one fsync;
// with nothing appended since the last one it does nothing.
func (l *Log) Sync() error {
	if l.err == nil && l.size != l.synced {
		if l.err = l.flush(); l.err == nil {
			l.err = l.f.Sync()
		}
		if l.err == nil {
			l.synced = l.size
		}
	}
	return l.err
}

// Reset empties the log, buffered frames included, once its contents are
// durable elsewhere. The file is empty and consistent again afterwards,
// so an earlier failure no longer taints it.
func (l *Log) Reset() error {
	if l.f != nil {
		if err := l.f.Truncate(0); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.buf, l.size, l.synced, l.err = l.buf[:0], 0, 0, nil
	return nil
}

// SealAs durably installs the log's file — it must hold something —
// under a new name in the same directory: sync, close, rename, directory
// fsync. The log is empty afterwards, and its next write creates a new
// file at its own path.
func (l *Log) SealAs(path string) error {
	if err := l.Sync(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f, l.size, l.synced = nil, 0, 0
	if err == nil {
		err = os.Rename(l.path, path)
	}
	if err == nil {
		err = SyncDir(filepath.Dir(path))
	}
	l.err = err
	return err
}

// Close syncs outstanding frames and closes the file. A sync failure,
// this one or an earlier one, is returned and the file is still closed.
func (l *Log) Close() error {
	return errors.Join(l.Sync(), l.Abandon())
}

// Abandon closes the file without writing the buffered frames: what
// process death does to them.
func (l *Log) Abandon() (err error) {
	if l.f != nil {
		err = l.f.Close()
	}
	l.f, l.buf, l.err = nil, nil, errors.New("reclog: log closed")
	return err
}
