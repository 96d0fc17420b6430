package cloudstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"efdedup/internal/chunk"
)

// DiskStore keeps containers and manifests under a directory, making the
// central store durable across restarts:
//
//	<root>/containers/open.cont        (the open container: the append log)
//	<root>/containers/<%016x>.cont     (sealed locality containers)
//	<root>/manifests/<escaped name>    (sequence of 32-byte chunk IDs)
//
// It is the file implementation of containerLog. Records are appended to
// open.cont with one write and one fsync per upload; sealing renames the
// synced file to its container ID and fsyncs the directory, so a sealed
// container is complete or absent. Manifests go through a temp file +
// fsync + rename + parent-dir fsync. The Server uses it when Config.Dir
// is set; payloads stay on disk and only the index (which IDs exist and
// where their newest copy lives) is held in memory.
type DiskStore struct {
	root string
	mu   sync.Mutex // serializes manifest writes

	// The open container, guarded by the containerStore's lock.
	open *os.File // nil until the first write after a seal
	size int64    // bytes of open.cont written so far
	buf  []byte   // framed records not yet written
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
// one for container 0.
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

// writeAtomic writes data to path via a temp file, fsync, rename and
// parent-directory fsync, so a crash leaves either no file or a complete
// durable one — never a truncated manifest, and never a rename the
// directory forgot.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives power loss
// (the missing half of the rename protocol the fsyncrename analyzer
// checks).
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cloudstore: sync dir %s: %w", dir, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("cloudstore: sync dir %s: %w", dir, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cloudstore: sync dir %s: %w", dir, err)
	}
	return nil
}

// append frames one chunk into the write buffer; sync writes it out.
func (d *DiskStore) append(id chunk.ID, data []byte) (uint32, error) {
	if d.size == 0 && len(d.buf) == 0 {
		d.buf = append(d.buf, containerMagic...)
	}
	var off uint32
	d.buf, off = appendContainerRecord(d.buf, id, data)
	return uint32(d.size) + off, nil
}

// write hands the buffered records to open.cont, creating it (and making
// its directory entry durable) on the first write after a seal.
func (d *DiskStore) write() error {
	if len(d.buf) == 0 {
		return nil
	}
	if d.open == nil {
		f, err := os.OpenFile(d.containerPath(0), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		d.open = f
		if err := syncDir(filepath.Dir(f.Name())); err != nil {
			return err
		}
	}
	n, err := d.open.Write(d.buf)
	d.size += int64(n)
	d.buf = d.buf[:0]
	return err
}

func (d *DiskStore) sync() error {
	if err := d.write(); err != nil || d.open == nil {
		return err // nil: nothing appended since the last seal
	}
	return d.open.Sync()
}

// seal installs open.cont as a sealed container: fsync, rename, fsync
// the directory.
func (d *DiskStore) seal(id uint64) error {
	if err := d.sync(); err != nil {
		return err
	}
	if err := d.open.Close(); err != nil {
		return err
	}
	d.open, d.size = nil, 0
	if err := os.Rename(d.containerPath(0), d.containerPath(id)); err != nil {
		return err
	}
	return syncDir(filepath.Dir(d.containerPath(id)))
}

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
	return writeAtomic(d.manifestPath(name), encodeManifestIDs(ids))
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
// handing every record's locator to fn, and returns the ID the open
// container will seal as. A corrupt sealed container fails the load
// loudly — they are installed atomically, so damage is data loss, not a
// crash artifact.
func (d *DiskStore) load(fn func(l Locator, id chunk.ID, open bool)) (openID uint64, err error) {
	openID = 1
	entries, err := os.ReadDir(filepath.Join(d.root, "containers"))
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "%016x.cont", &id); err != nil || e.Name() != filepath.Base(d.containerPath(id)) {
			continue // open.cont or a foreign file
		}
		data, err := os.ReadFile(d.containerPath(id))
		if err != nil {
			return 0, err
		}
		err = parseContainer(data, func(cid chunk.ID, off uint32, payload []byte) error {
			fn(Locator{Container: id, Offset: off, Length: uint32(len(payload))}, cid, false)
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("cloudstore: load container %d: %w", id, err)
		}
		openID = id + 1
	}
	return openID, d.loadOpen(func(cid chunk.ID, off uint32, payload []byte) error {
		fn(Locator{Container: openID, Offset: off, Length: uint32(len(payload))}, cid, true)
		return nil
	})
}

// loadOpen replays open.cont into fn and reopens it for appending. The
// scan stops at the first truncated or CRC-failing record and the file
// is cut there — the rule the kvstore WAL replays by: the tail a crash
// tore was never synced, so never acknowledged.
func (d *DiskStore) loadOpen(fn func(id chunk.ID, off uint32, payload []byte) error) error {
	f, err := os.OpenFile(d.containerPath(0), os.O_RDWR|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	d.open = f
	data, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	valid, err := scanContainer(data, fn)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		return err
	}
	d.size = int64(valid)
	if valid == len(data) {
		return nil
	}
	if err := f.Truncate(d.size); err != nil {
		return err
	}
	return f.Sync()
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
