package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Snapshot file format: a CRC-framed dump of the in-memory table that,
// together with the WAL suffix written after it, reconstructs a node's
// exact pre-crash state. Layout:
//
//	8 bytes  magic "EFSNAP1\n"
//	u32      record count
//	repeated framed record (appendRecord in wal.go), one per entry
//
// A snapshot is written to a temp file, fsynced, then atomically renamed
// over the previous one (and the directory fsynced), so a crash at any
// point leaves either the old snapshot or the new one — never a partial
// file. Corruption in a loaded snapshot is therefore real damage, not a
// torn write, and recovery fails loudly instead of silently dropping the
// index.

// snapshotMagic identifies a snapshot file and its format version.
var snapshotMagic = []byte("EFSNAP1\n")

// writeSnapshot durably writes table to path via write-temp → fsync →
// atomic rename.
func writeSnapshot(path string, table map[string]Entry) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: write snapshot: %w", err)
	}
	cleanup := func(err error) error {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(snapshotMagic); err != nil {
		return cleanup(fmt.Errorf("kvstore: write snapshot: %w", err))
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(nil, uint32(len(table)))); err != nil {
		return cleanup(fmt.Errorf("kvstore: write snapshot: %w", err))
	}
	var rec []byte
	for k, e := range table {
		rec = appendRecord(rec[:0], []byte(k), e)
		if _, err := w.Write(rec); err != nil {
			return cleanup(fmt.Errorf("kvstore: write snapshot: %w", err))
		}
	}
	if err := w.Flush(); err != nil {
		return cleanup(fmt.Errorf("kvstore: write snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("kvstore: sync snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("kvstore: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("kvstore: install snapshot: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("kvstore: sync snapshot dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("kvstore: sync snapshot dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("kvstore: sync snapshot dir: %w", err)
	}
	return nil
}

// loadSnapshot reads a snapshot into a fresh table. A missing file means
// a fresh node (nil map, nil error); any framing, CRC or decode failure
// is ErrCorrupt — snapshots are installed atomically, so damage is never
// an expected crash artifact.
func loadSnapshot(path string) (map[string]Entry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: load snapshot: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, snapshotMagic) {
		return nil, fmt.Errorf("%w: snapshot %s: bad magic", ErrCorrupt, path)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: truncated count", ErrCorrupt, path)
	}
	count := binary.BigEndian.Uint32(cnt[:])
	table := make(map[string]Entry, count)
	for i := uint32(0); i < count; i++ {
		key, e, _, st := readRecord(r)
		switch st {
		case recordEOF, recordTorn:
			return nil, fmt.Errorf("%w: snapshot %s: truncated record %d", ErrCorrupt, path, i)
		case recordCorrupt:
			return nil, fmt.Errorf("%w: snapshot %s: record %d fails its length, crc or decode check", ErrCorrupt, path, i)
		}
		table[string(key)] = e
	}
	return table, nil
}
