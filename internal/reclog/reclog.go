// Package reclog is the crash-safe file layer under every durable file
// in the module: the kvstore WAL and snapshot, the cloud's container log,
// and the restore tool's output. It owns three decisions:
//
//   - the frame: how one record is delimited and checksummed
//     (BeginFrame/EndFrame write it, Next parses it);
//   - the log: what a damaged tail means when an append-only file of
//     frames is opened (Scan, Open, Log);
//   - the install: how a whole file replaces another atomically
//     (WriteFileAtomic, SyncDir).
//
// What a payload holds, and whether damage is a crash artifact or data
// loss, is the caller's business. A Log is not safe for concurrent use.
package reclog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
)

// A frame is u32 payload length | u32 crc32-IEEE(payload) | payload,
// big-endian.
const (
	// HeaderSize is the framing overhead of one record.
	HeaderSize = 8
	// MaxRecord bounds a payload (16 MiB): a longer length prefix is
	// corruption and never sizes an allocation.
	MaxRecord = 16 << 20
)

// Status is how one Next call ended.
type Status int

const (
	OK      Status = iota
	EOF            // no bytes left: the clean end
	Torn           // header or payload cut short
	Corrupt        // impossible length or CRC mismatch
)

// BeginFrame reserves a frame header at the end of dst. The caller
// appends the payload behind it and then calls EndFrame on the frame.
func BeginFrame(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, 0)  // length
	return binary.BigEndian.AppendUint32(dst, 0) // crc32
}

// EndFrame fills in the header BeginFrame reserved; frame is the header
// and everything appended since.
func EndFrame(frame []byte) {
	payload := frame[HeaderSize:]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
}

// Next parses the frame at the start of b. On OK, payload is a sub-slice
// of b and n the bytes the frame occupies. The header is read here
// rather than through internal/codec, like every other byte format: it
// is parsed without allocating, next to the CRC check it feeds, and it
// frames payloads instead of being one.
func Next(b []byte) (payload []byte, n int, st Status) {
	if len(b) == 0 {
		return nil, 0, EOF
	}
	if len(b) < HeaderSize {
		return nil, 0, Torn
	}
	size := binary.BigEndian.Uint32(b)
	if size > MaxRecord {
		return nil, 0, Corrupt
	}
	n = HeaderSize + int(size)
	if len(b) < n {
		return nil, 0, Torn
	}
	payload = b[HeaderSize:n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4:]) {
		return nil, 0, Corrupt
	}
	return payload, n, OK
}

// WriteFileAtomic installs what fill writes as the file at path: temp
// file in the same directory → fill → fsync → rename → directory fsync.
// A crash leaves the old file or the new one, never a partial one, and
// never a rename the directory forgot; a failure removes the temp file
// and leaves path as it was. The result has mode 0644. fill writes
// through a buffer, so many small writes are cheap.
func WriteFileAtomic(path string, fill func(w *bufio.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(tmp, 64<<10)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: the failure above is the one to report
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so that a file just created or renamed in
// it survives power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
