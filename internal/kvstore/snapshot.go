package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"os"

	"efdedup/internal/codec"
	"efdedup/internal/reclog"
)

// Snapshot file: a dump of the in-memory table that, together with the
// WAL suffix written after it, reconstructs a node's exact pre-crash
// state. Layout:
//
//	8 bytes  magic "EFSNAP1\n"
//	u32      record count
//	repeated record (appendRecord in wal.go), one per entry
//
// It is installed with reclog.WriteFileAtomic, so a crash at any point
// leaves either the old snapshot or the new one. Damage in a loaded
// snapshot is therefore real damage, not a torn write, and recovery
// fails loudly instead of silently dropping the index.

// snapshotMagic identifies a snapshot file and its format version.
var snapshotMagic = []byte("EFSNAP1\n")

const minSnapshotRecord = reclog.HeaderSize + 16 // a frame around an empty key and value

// writeSnapshot durably installs table as the snapshot at path.
func writeSnapshot(path string, table map[string]Entry) error {
	err := reclog.WriteFileAtomic(path, func(w *bufio.Writer) error {
		hdr := codec.U32(bytes.Clone(snapshotMagic), uint32(len(table)))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		var rec []byte
		for k, e := range table {
			rec = appendRecord(rec[:0], []byte(k), e)
			if _, err := w.Write(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("kvstore: write snapshot: %w", err)
	}
	return nil
}

// loadSnapshot reads a snapshot into a fresh table. A missing file means
// a fresh node (nil map, nil error); any framing, CRC or decode failure
// is ErrCorrupt — snapshots are installed atomically, so damage is never
// an expected crash artifact.
func loadSnapshot(path string) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: load snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("%w: snapshot %s: bad magic", ErrCorrupt, path)
	}
	r := codec.NewReader(data[len(snapshotMagic):], ErrCorrupt)
	count := r.U32()
	data = r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snapshot %s: record count: %w", path, err)
	}
	// No CRC covers the count: size the table by what the file can hold.
	table := make(map[string]Entry, min(uint64(count), uint64(len(data)/minSnapshotRecord)))
	for i := uint32(0); i < count; i++ {
		payload, n, st := reclog.Next(data)
		if st != reclog.OK {
			return nil, fmt.Errorf("%w: snapshot %s: record %d is truncated or fails its length or crc check", ErrCorrupt, path, i)
		}
		key, e, ok := recordEntry(payload)
		if !ok {
			return nil, fmt.Errorf("%w: snapshot %s: record %d is not one entry", ErrCorrupt, path, i)
		}
		table[string(key)] = e
		data = data[n:]
	}
	return table, nil
}
