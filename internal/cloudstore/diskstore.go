package cloudstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"efdedup/internal/chunk"
	"efdedup/internal/reclog"
)

// DiskStore keeps the container log under a directory, making the
// central store durable across restarts:
//
//	<root>/containers/open.cont        (the open container: the append log)
//	<root>/containers/<%016x>.cont     (sealed locality containers)
//
// It is the file implementation of containerLog: open.cont is a
// reclog.Log (one write and one fsync per upload or commit; sealing
// renames the synced file to its container ID). What this file adds is
// the directory layout, ranged reads and the startup scan; chunks and
// manifests stay on disk, and only where they lie is held in memory.
type DiskStore struct {
	root string

	// Guarded by the containerStore's lock.
	open  *reclog.Log // the open container; load opens it
	frame []byte      // scratch for the record being appended
}

// NewDiskStore creates (if needed) the directory layout under root. A
// root holding staged chunks/ or manifests/ files of an older layout is
// refused rather than silently opened without them; an empty manifests/
// directory holds nothing to lose.
func NewDiskStore(root string) (*DiskStore, error) {
	if root == "" {
		return nil, fmt.Errorf("%w: empty disk store root", ErrConfig)
	}
	for _, layout := range []string{"chunks/*/*.chunk", "manifests/*"} {
		if old, _ := filepath.Glob(filepath.Join(root, layout)); len(old) > 0 {
			return nil, fmt.Errorf("%w: %s holds %s of an older layout", ErrConfig, root, old[0])
		}
	}
	if err := os.MkdirAll(filepath.Join(root, "containers"), 0o755); err != nil {
		return nil, fmt.Errorf("cloudstore: create %s: %w", root, err)
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
		extents = []Extent{{Len: uint32(st.Size())}} // maxContainerBytes fits a u32
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

// load scans the sealed containers in ID order and then the open one,
// handing fn every record's container, start and payload (false rejects
// it as damaged), opens the open container for appending, and returns
// the ID it will seal as. A damaged sealed container fails the load
// loudly — they are installed atomically, so damage is data loss, not a
// crash artifact — while the open container is cut back to its last
// intact record: the tail a crash tore was never synced, so never
// acknowledged.
func (d *DiskStore) load(fn func(container uint64, off uint32, payload []byte, open bool) bool) (openID uint64, err error) {
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
			at := off
			off += reclog.HeaderSize + len(payload)
			return fn(id, uint32(at), payload, open)
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
