package cloudstore

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"efdedup/internal/chunk"
	"efdedup/internal/reclog"
)

// DiskStore keeps containers and manifests under a directory, making the
// central store durable across restarts:
//
//	<root>/containers/open.cont        (the open container: the append log)
//	<root>/containers/<%016x>.cont     (sealed locality containers)
//	<root>/manifests/<escaped name>    (sequence of 32-byte chunk IDs)
//
// It is the file implementation of containerLog: open.cont is a
// reclog.Log (one write and one fsync per upload; sealing renames the
// synced file to its container ID) and manifests are installed with
// reclog.WriteFileAtomic. What this file adds is the directory layout,
// manifest naming, ranged reads and the startup scan. Payloads stay on
// disk; only the index (which IDs exist and where their newest copy
// lives) is held in memory.
type DiskStore struct {
	root string
	mu   sync.Mutex // serializes manifest writes

	// Guarded by the containerStore's lock.
	open  *reclog.Log // the open container; load opens it
	frame []byte      // scratch for the record being appended
}

// NewDiskStore creates (if needed) the directory layout under root. A
// root written by the old two-copy layout (staged chunks/ files that
// startup no longer reads) is refused rather than silently opened
// without those chunks.
func NewDiskStore(root string) (*DiskStore, error) {
	if root == "" {
		return nil, fmt.Errorf("%w: empty disk store root", ErrConfig)
	}
	if staged, _ := filepath.Glob(filepath.Join(root, "chunks", "*", "*.chunk")); len(staged) > 0 {
		return nil, fmt.Errorf("%w: %s holds %d staged chunk files of the old layout", ErrConfig, root, len(staged))
	}
	for _, dir := range []string{root, filepath.Join(root, "containers"), filepath.Join(root, "manifests")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cloudstore: create %s: %w", dir, err)
		}
	}
	return &DiskStore{root: root}, nil
}

// containerPath returns the path of a sealed container, or of the open
// one for the log's container 0.
func (d *DiskStore) containerPath(id uint64) string {
	name := "open.cont"
	if id != 0 {
		name = fmt.Sprintf("%016x.cont", id)
	}
	return filepath.Join(d.root, "containers", name)
}

// Manifest names are percent-escaped into single filesystem names. The
// escaper must be injective — distinct names must never share a file —
// so '%' itself is escaped (listed first: strings.Replacer is a single
// non-overlapping pass, so "%2F" in a raw name becomes "%252F", not a
// fake separator), and the unescaper decodes longest sequences before
// the bare "%25".
var (
	manifestEscaper   = strings.NewReplacer("%", "%25", "/", "%2F", "\\", "%5C", ":", "%3A")
	manifestUnescaper = strings.NewReplacer("%2F", "/", "%5C", "\\", "%3A", ":", "%25", "%")
)

// escapeName makes a manifest name filesystem-safe; unescapeName inverts
// it exactly (round-trip property-tested).
func escapeName(name string) string   { return manifestEscaper.Replace(name) }
func unescapeName(name string) string { return manifestUnescaper.Replace(name) }

func (d *DiskStore) manifestPath(name string) string {
	return filepath.Join(d.root, "manifests", escapeName(name))
}

func (d *DiskStore) append(id chunk.ID, data []byte) (uint32, error) {
	d.frame = appendContainerRecord(d.frame[:0], id, data)
	off, err := d.open.Append(d.frame)
	return uint32(off) + containerRecordHeader, err
}

func (d *DiskStore) sync() error { return d.open.Sync() }

func (d *DiskStore) seal(id uint64) error { return d.open.SealAs(d.containerPath(id)) }

// read serves byte ranges of a container file — a chunk, or the records
// one restore needs — with one open and one ReadAt per range, and the
// whole file for no ranges.
func (d *DiskStore) read(id uint64, extents []Extent) ([]byte, error) {
	f, err := os.Open(d.containerPath(id))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: container %d", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if len(extents) == 0 {
		extents = []Extent{{Len: uint32(st.Size())}} // offsets are u32: a container is under 4 GiB
	}
	n, err := extentBytes(extents, st.Size())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	at := buf
	for _, e := range extents {
		if _, err := f.ReadAt(at[:e.Len], int64(e.Off)); err != nil {
			return nil, err
		}
		at = at[e.Len:]
	}
	return buf, nil
}

// PutManifest stores a file's chunk sequence.
func (d *DiskStore) PutManifest(name string, ids []chunk.ID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return reclog.WriteFileAtomic(d.manifestPath(name), func(w *bufio.Writer) error {
		_, err := w.Write(encodeManifestIDs(ids))
		return err
	})
}

// GetManifest reads a file's chunk sequence.
func (d *DiskStore) GetManifest(name string) ([]chunk.ID, error) {
	data, err := os.ReadFile(d.manifestPath(name))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	ids, err := decodeManifestIDs(data)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest %q on disk: %v", ErrCorrupt, name, err)
	}
	return ids, nil
}

// load scans the sealed containers in ID order and then the open one,
// handing every record's locator to fn, opens the open container for
// appending, and returns the ID it will seal as. A damaged sealed
// container fails the load loudly — they are installed atomically, so
// damage is data loss, not a crash artifact — while the open container
// is cut back to its last intact record: the tail a crash tore was never
// synced, so never acknowledged.
func (d *DiskStore) load(fn func(l Locator, id chunk.ID, open bool)) (openID uint64, err error) {
	openID = 1
	entries, err := os.ReadDir(filepath.Join(d.root, "containers"))
	if err != nil {
		return 0, err
	}
	// records adapts fn to a log scan of container id, tracking where
	// each record starts.
	records := func(id uint64, open bool) func(payload []byte) bool {
		off := len(containerMagic)
		return func(payload []byte) bool {
			cid, data, ok := splitRecord(payload)
			if ok {
				fn(Locator{Container: id, Offset: uint32(off + containerRecordHeader), Length: uint32(len(data))}, cid, open)
				off += reclog.HeaderSize + len(payload)
			}
			return ok
		}
	}
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "%016x.cont", &id); err != nil || e.Name() != filepath.Base(d.containerPath(id)) {
			continue // open.cont or a foreign file
		}
		st, err := reclog.Scan(d.containerPath(id), containerMagic, records(id, false))
		if errors.Is(err, reclog.ErrMagic) || (err == nil && st.Discarded() > 0) {
			err = fmt.Errorf("%w: %d of its bytes are intact", ErrCorrupt, st.Bytes)
		}
		if err != nil {
			return 0, fmt.Errorf("cloudstore: load container %d: %w", id, err)
		}
		openID = id + 1
	}
	d.open, _, err = reclog.Open(d.containerPath(0), containerMagic, records(openID, true))
	if errors.Is(err, reclog.ErrMagic) {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return openID, err
}

// ManifestNames lists stored manifest names.
func (d *DiskStore) ManifestNames() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(d.root, "manifests"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		names = append(names, unescapeName(e.Name()))
	}
	return names, nil
}
