package cloudstore

// Locality-preserving chunk containers — the store itself.
//
// A chunk payload lives in exactly one kind of place: a record of a
// container. Fresh chunks are appended — in upload order, which is
// stream order — to the one open container; when it reaches its target
// size it seals and a new one starts. A restore page reads, from each
// container it touches, sealed or open, the records it needs (one read
// per container), so the containers a stream touches are the
// fragmentation measure of the container-store literature (partial
// repetition / container capping), counted in reads, not in bytes.
//
// Container format (file "<root>/containers/<%016x>.cont" once sealed,
// "<root>/containers/open.cont" while open, or byte slices for Dir-less
// servers): the magic "EFCONT3\n", then one reclog frame per record,
//
//	chunk:    32-byte chunk ID | data
//	manifest: 32 zero bytes | u16 name length | name | u8 more parts follow | (32-byte ID)*
//
// No chunk's SHA-256 is zero, so the zero ID tags a manifest; one too
// long for a record spans consecutive parts. The frame CRC covers the
// payload, so a torn or bit-flipped container is detected at parse time,
// and every chunk is content-addressed, so readers verify end to end.
//
// Durability protocol: the open container is the write-ahead log. An
// upload appends its fresh records — a commit its manifest's right
// behind them — syncs the open container once, and only then enters them
// in the index and the catalog and replies, so whatever the store
// advertises is durable. Sealing is an atomic install (reclog's SealAs),
// so a sealed container is never torn: damage to one is data loss
// (ErrCorrupt), while a torn tail of the open container is a crash
// artifact holding only unacknowledged records and is cut off at
// startup. The first append, sync or seal failure stops the writer (as a
// failed fsync stops the kvstore WAL): the file's state is unknown, so
// uploads fail until a restart has recovered the durable prefix; reads
// keep working. Only chunk records count toward a container's target
// size; see makeRoom for its bound.
//
// One index maps every chunk to its newest durable copy, by the ID its
// container has or will seal as. The open container is read (copied)
// under the store's lock, since appends and a seal change it, and a
// sealed one without; a client holding an open container's locators
// reads the same bytes after it seals, at the same offsets, under the
// same ID.
//
// Bounded selective duplication: when a manifest's chunks are spread
// thinly over old containers (a later backup referencing a handful of
// mutated blocks per old stream), restoring it would touch many
// containers for a few chunks each. repack copies such sparsely
// referenced hot chunks into the open container — deliberately storing
// them twice — and when that container seals the index moves to the
// new, denser copy. The duplicated bytes are capped at DupFraction of
// the unique bytes stored, so dedup ratio degrades by a bounded,
// configured amount.

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"efdedup/internal/chunk"
	"efdedup/internal/codec"
	"efdedup/internal/metrics"
	"efdedup/internal/reclog"
	"efdedup/internal/transport"
)

// Container geometry and duplication defaults.
const (
	// DefaultContainerBytes is the target sealed-container payload size.
	DefaultContainerBytes = 4 << 20
	// DefaultDupFraction caps selective-duplication bytes at this
	// fraction of the unique bytes packed into containers.
	DefaultDupFraction = 0.05
	// DefaultSparseRefLimit: a manifest referencing a sealed container
	// for at most this many chunks counts that container as fragmenting,
	// making those chunks repack candidates.
	DefaultSparseRefLimit = 4
)

// containerMagic identifies a container file and its format version.
// (EFCONT1 put the chunk ID in front of the frame header; EFCONT2 had no
// manifest records.)
var containerMagic = []byte("EFCONT3\n")

// manifestTag is the ID of every manifest record.
var manifestTag chunk.ID

// maxContainerBytes bounds a container to one getcontainer reply's body.
const maxContainerBytes = transport.MaxFrameSize - 10

// containerRecordHeader is the per-record overhead: a Locator's Offset
// is this far into its record.
const containerRecordHeader = reclog.HeaderSize + chunk.IDSize

// maxChunkBytes is the largest chunk a record can hold.
const maxChunkBytes = reclog.MaxRecord - chunk.IDSize

// Locator addresses one chunk copy inside a container: the container ID
// plus the payload's byte range within the container.
type Locator struct {
	Container uint64
	Offset    uint32
	Length    uint32
}

// Extent is a byte range of a container.
type Extent struct {
	Off uint32
	Len uint32
}

// errPastEnd is a log read that ends past its container. The store
// chose the range from its index, so the index and the container
// disagree: damage.
var errPastEnd = fmt.Errorf("%w: range ends past the container", ErrCorrupt)

// extentBytes returns how many bytes the extents name in a container of
// the given size.
func extentBytes(extents []Extent, size int64) (int, error) {
	n := 0
	for _, e := range extents {
		if int64(e.Off)+int64(e.Len) > size {
			return 0, errPastEnd
		}
		n += int(e.Len)
	}
	return n, nil
}

// appendContainerRecord frames one chunk at the end of buf; its data
// starts containerRecordHeader bytes into the record.
func appendContainerRecord(buf []byte, id chunk.ID, data []byte) []byte {
	start := len(buf)
	buf = codec.ID(reclog.BeginFrame(buf), id)
	buf = append(buf, data...)
	reclog.EndFrame(buf[start:])
	return buf
}

// splitRecord splits a record's payload into chunk ID and data.
func splitRecord(payload []byte) (id chunk.ID, data []byte, ok bool) {
	r := codec.NewReader(payload, ErrCorrupt)
	id, data = r.ID(), r.Rest()
	return id, data, r.Err() == nil
}

// parseRecords walks a run of whole records — the extents of a restore
// fetch, or a sealed container minus its magic — verifying the frame
// CRCs, and hands each record to fn; data is a sub-slice of b. The run
// was cut at record boundaries, so anything but a clean end is
// ErrCorrupt.
func parseRecords(b []byte, fn func(id chunk.ID, data []byte)) error {
	for off := 0; ; {
		payload, n, st := reclog.Next(b[off:])
		if st == reclog.EOF {
			return nil
		}
		id, data, ok := splitRecord(payload) // of nothing, unless st is OK
		if !ok {
			return fmt.Errorf("%w: container record at byte %d is truncated or fails its crc", ErrCorrupt, off)
		}
		fn(id, data)
		off += n
	}
}

// containerLog is where container bytes live: byte slices (memLog) or
// files (DiskStore). It is all that differs between an in-memory and a
// disk-backed store. Container 0 names the open container. Callers
// serialize writers against each other and against readers of the open
// container; a sealed container is immutable and is read concurrently
// with anything.
type containerLog interface {
	// append frames one record at the end of the open container and
	// returns its data's offset. The record may be lost in a crash
	// until sync returns.
	append(id chunk.ID, data []byte) (uint32, error)
	// sync makes every appended record durable.
	sync() error
	// read returns the named byte ranges of a container, concatenated in
	// the order given, or the whole container for no ranges; a range the
	// container does not hold is errPastEnd. A read of the open container
	// is a copy, made under the caller's lock; a read of a sealed one may
	// alias it. Either way the slice stays valid across later appends
	// and seals.
	read(container uint64, extents []Extent) ([]byte, error)
	// seal durably installs the open container as sealed container id;
	// the next append starts a new open container.
	seal(id uint64) error
}

// openBufs recycles open-container buffers of memLogs: a seal keeps an
// exact-size copy of the open container and hands its buffer, grown to a
// container's size, to the next one, so appends stop regrowing (and
// recopying) it. A pool, not a field, so an idle store holds no spare
// buffer once the garbage collector has emptied the pool.
var openBufs sync.Pool // of *[]byte

// memLog keeps containers as byte slices. The open container is built in
// a buffer reused from container to container, so reads of it are
// copies; a sealed container is never written again, so reads of it
// alias it.
type memLog struct {
	open []byte

	mu     sync.Mutex // guards the map, which sealed reads share with seal
	sealed map[uint64][]byte
}

func newMemLog() *memLog { return &memLog{sealed: make(map[uint64][]byte)} }

func (m *memLog) append(id chunk.ID, data []byte) (uint32, error) {
	if len(m.open) == 0 {
		if buf, ok := openBufs.Get().(*[]byte); ok {
			m.open = *buf
		}
		m.open = append(m.open[:0], containerMagic...)
	}
	off := uint32(len(m.open)) + containerRecordHeader
	m.open = appendContainerRecord(m.open, id, data)
	return off, nil
}

func (m *memLog) sync() error { return nil }

func (m *memLog) read(container uint64, extents []Extent) ([]byte, error) {
	var data []byte
	if container == 0 {
		data = m.open // under the caller's lock
	} else {
		m.mu.Lock()
		data = m.sealed[container]
		m.mu.Unlock()
	}
	if len(extents) == 0 {
		extents = []Extent{{Len: uint32(len(data))}} // maxContainerBytes fits a u32
	}
	n, err := extentBytes(extents, int64(len(data)))
	if err != nil {
		return nil, err
	}
	if e := extents[0]; len(extents) == 1 && container != 0 {
		return data[e.Off : e.Off+e.Len], nil
	}
	out := make([]byte, 0, n)
	for _, e := range extents {
		out = append(out, data[e.Off:e.Off+e.Len]...)
	}
	return out, nil
}

// seal keeps an exact-size copy of the open container and returns its
// buffer to openBufs for the next one.
func (m *memLog) seal(id uint64) error {
	sealed := bytes.Clone(m.open)
	m.mu.Lock()
	m.sealed[id] = sealed
	m.mu.Unlock()
	buf := m.open[:0]
	openBufs.Put(&buf)
	m.open = nil
	return nil
}

// dupCopy is a repacked chunk copy waiting in the open container.
type dupCopy struct {
	id  chunk.ID
	loc Locator
}

// containerStore is the chunk store: the index of every stored chunk,
// the catalog of every manifest, and the writer that packs both into the
// open container and seals containers at targetBytes.
type containerStore struct {
	log            containerLog
	targetBytes    int64
	dupFraction    float64
	sparseRefLimit int

	mu        sync.RWMutex
	loc       map[chunk.ID]Locator // newest durable copy of every stored chunk
	catalog   map[string]Locator   // part records of each manifest's newest durable version
	openID    uint64               // ID the open container will seal as
	openSize  int64                // record bytes in the open container
	openBytes int64                // chunk-record bytes in the open container
	openDups  []dupCopy            // supersede loc when the open container seals
	logErr    error                // first log failure; sticky

	replaying     Locator // the manifest whose parts startup is collecting
	replayingName string

	uniqueBytes int64 // first-copy payload bytes stored
	dupBytes    int64 // duplicated payload bytes stored

	sealedTotal  *metrics.Counter
	sealFailures *metrics.Counter
	repackChunks *metrics.Counter
	repackBytes  *metrics.Counter
}

// newContainerStore builds an empty store over log.
func newContainerStore(log containerLog, targetBytes int, dupFraction float64, sparseRefLimit int) *containerStore {
	if targetBytes <= 0 {
		targetBytes = DefaultContainerBytes
	}
	if dupFraction < 0 {
		dupFraction = 0
	}
	if sparseRefLimit <= 0 {
		sparseRefLimit = DefaultSparseRefLimit
	}
	reg := metrics.Default()
	return &containerStore{
		log:            log,
		targetBytes:    int64(targetBytes),
		dupFraction:    dupFraction,
		sparseRefLimit: sparseRefLimit,
		openID:         1,
		loc:            make(map[chunk.ID]Locator),
		catalog:        make(map[string]Locator),
		sealedTotal:    reg.Counter("cloud_server_containers_sealed_total"),
		sealFailures:   reg.Counter("cloud_server_container_seal_failures_total"),
		repackChunks:   reg.Counter("cloud_server_repacked_chunks_total"),
		repackBytes:    reg.Counter("cloud_server_repacked_bytes_total"),
	}
}

// replay indexes a record found at startup and reports whether it parses;
// records arrive in container order, the open one last. The first copy of
// a chunk is the stored one; a later copy is a repack and supersedes it
// once its container is sealed. A manifest is catalogued, over any older
// version, once its last part is in.
func (cs *containerStore) replay(container uint64, off uint32, payload []byte, open bool) bool {
	id, data, ok := splitRecord(payload)
	if !ok {
		return false
	}
	size := int64(reclog.HeaderSize + len(payload))
	if open {
		cs.openSize += size
		if id != manifestTag {
			cs.openBytes += size
		}
	}
	if id == manifestTag {
		name, more, _, err := decodeManifestPart(data)
		if err != nil {
			return false
		}
		m := &cs.replaying
		if cs.replayingName != name || m.Container != container || m.Offset+m.Length != off {
			cs.replayingName, *m = name, Locator{Container: container, Offset: off} // a first part
		}
		if m.Length += uint32(size); !more {
			cs.catalog[name], cs.replayingName = *m, ""
		}
		return true
	}
	l := Locator{Container: container, Offset: off + containerRecordHeader, Length: uint32(len(data))}
	_, known := cs.loc[id]
	switch {
	case !known:
		cs.uniqueBytes += int64(l.Length)
		cs.loc[id] = l
	case open:
		cs.dupBytes += int64(l.Length)
		cs.openDups = append(cs.openDups, dupCopy{id, l})
	default:
		cs.dupBytes += int64(l.Length)
		cs.loc[id] = l
	}
	return true
}

// put stores the chunks the index lacks, and for a non-empty name ids as
// its manifest, and returns how many chunks were fresh, appending and
// syncing (one fsync on disk) before the index or catalog advertises any.
// A manifest naming a chunk neither stored nor in chunks is ErrNotFound
// and is not recorded; the fresh chunks still are.
func (cs *containerStore) put(chunks []chunk.Chunk, name string, ids []chunk.ID) (int, error) {
	for _, ck := range chunks {
		if len(ck.Data) > maxChunkBytes {
			return 0, fmt.Errorf("%w: chunk %s is %d bytes, a record holds %d", ErrProto, ck.ID, len(ck.Data), maxChunkBytes)
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var fresh map[chunk.ID]Locator
	for i, ck := range chunks {
		if _, ok := cs.loc[ck.ID]; ok || fresh[ck.ID].Container != 0 {
			continue // stored, or earlier in this batch
		}
		cs.makeRoom(containerRecordHeader + len(ck.Data))
		l, err := cs.appendRecord(ck.ID, ck.Data)
		if err != nil {
			return 0, err
		}
		if fresh == nil {
			fresh = make(map[chunk.ID]Locator, len(chunks)-i)
		}
		fresh[ck.ID] = l
	}
	var missing error
	for i, id := range ids {
		if _, ok := cs.loc[id]; !ok && fresh[id].Container == 0 {
			missing = fmt.Errorf("%w: manifest %q entry %d names chunk %s, which is not stored", ErrNotFound, name, i, id)
			break
		}
	}
	var ref Locator // the manifest's part records: one run in one container
	if name != "" && missing == nil {
		per, head := partLayout(name)
		// Room for every part first, so that no seal splits them.
		cs.makeRoom(max(1, (len(ids)+per-1)/per)*head + len(ids)*chunk.IDSize)
		for rest := ids; ; {
			n := min(len(rest), per)
			part := encodeManifestPart(name, n < len(rest), rest[:n])
			l, err := cs.appendRecord(manifestTag, part)
			if err != nil {
				return 0, err
			}
			if ref.Length == 0 {
				ref = Locator{Container: l.Container, Offset: l.Offset - containerRecordHeader}
			}
			ref.Length += containerRecordHeader + uint32(len(part))
			if rest = rest[n:]; len(rest) == 0 {
				break
			}
		}
	}
	if len(fresh) > 0 || ref.Length > 0 {
		if err := cs.log.sync(); err != nil {
			return 0, cs.fail(err)
		}
	}
	for id, l := range fresh {
		cs.loc[id] = l
		cs.uniqueBytes += int64(l.Length)
	}
	if ref.Length > 0 {
		cs.catalog[name] = ref
	}
	return len(fresh), missing
}

// repack appends a selective-duplication copy of a stored chunk to the
// open container if the duplication budget has room, and reports
// whether it did. The copy needs no sync of its own: it is indexed only
// when its container seals.
func (cs *containerStore) repack(id chunk.ID, data []byte) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if float64(cs.dupBytes+int64(len(data))) > cs.dupFraction*float64(cs.uniqueBytes) {
		return false
	}
	cs.makeRoom(containerRecordHeader + len(data))
	l, err := cs.appendRecord(id, data)
	if err != nil {
		return false
	}
	cs.dupBytes += int64(len(data))
	cs.repackChunks.Inc()
	cs.repackBytes.Add(int64(len(data)))
	cs.openDups = append(cs.openDups, dupCopy{id, l})
	return true
}

// fail stops the writer at its first log failure and returns the error
// every later upload gets.
func (cs *containerStore) fail(err error) error {
	if cs.logErr == nil {
		cs.logErr = fmt.Errorf("cloudstore: container log: %w", err)
	}
	return cs.logErr
}

// makeRoom seals the open container if n more bytes would overflow it.
func (cs *containerStore) makeRoom(n int) {
	if cs.openSize > 0 && int64(len(containerMagic))+cs.openSize+int64(n) > maxContainerBytes {
		cs.sealLocked()
	}
}

// appendRecord appends one record to the open container and returns where
// its data landed; a chunk record reaching the target size seals it.
func (cs *containerStore) appendRecord(id chunk.ID, data []byte) (Locator, error) {
	if cs.logErr != nil {
		return Locator{}, cs.logErr // stopped earlier, or a seal failed
	}
	off, err := cs.log.append(id, data)
	if err != nil {
		return Locator{}, cs.fail(err)
	}
	l := Locator{Container: cs.openID, Offset: off, Length: uint32(len(data))}
	size := int64(containerRecordHeader + len(data))
	cs.openSize += size
	if id != manifestTag {
		if cs.openBytes += size; cs.openBytes >= cs.targetBytes {
			cs.sealLocked()
		}
	}
	return l, cs.logErr
}

// flush seals the open container regardless of fill level.
func (cs *containerStore) flush() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.sealLocked()
}

// sealLocked seals the open container, if it holds anything, and moves
// the index to the repacked copies it carries: every record of a sealed
// container supersedes older copies. A store whose log has failed is
// left as it is for the next startup to recover.
func (cs *containerStore) sealLocked() {
	if cs.openSize == 0 || cs.logErr != nil {
		return
	}
	if err := cs.log.seal(cs.openID); err != nil {
		cs.sealFailures.Inc()
		cs.fail(fmt.Errorf("seal container %d: %w", cs.openID, err))
		return
	}
	for _, d := range cs.openDups {
		cs.loc[d.id] = d.loc
	}
	cs.openDups = cs.openDups[:0]
	cs.openID++
	cs.openSize, cs.openBytes = 0, 0
	cs.sealedTotal.Inc()
}

// addStats fills in the counters the container store owns.
func (cs *containerStore) addStats(st *Stats) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	st.UniqueChunks = int64(len(cs.loc))
	st.UniqueBytes = cs.uniqueBytes
	st.ContainersSealed = int64(cs.openID - 1)
	st.DuplicatedBytes = cs.dupBytes
	st.Manifests = int64(len(cs.catalog))
}

// has reports, per ID, whether the chunk is stored.
func (cs *containerStore) has(ids []chunk.ID) []byte {
	out := make([]byte, len(ids))
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for i, id := range ids {
		if _, ok := cs.loc[id]; ok {
			out[i] = 1
		}
	}
	return out
}

// partLayout returns how many IDs one part record of the named manifest
// holds, and the bytes of a part record in front of its IDs.
func partLayout(name string) (per, head int) {
	head = containerRecordHeader + 3 + len(name)
	return (reclog.MaxRecord - (head - reclog.HeaderSize)) / chunk.IDSize, head
}

// manifestRef returns where the named manifest's newest version is and
// how many IDs its part records hold, from their size: every part but
// the last is full.
func (cs *containerStore) manifestRef(name string) (Locator, int, error) {
	cs.mu.RLock()
	ref, ok := cs.catalog[name]
	cs.mu.RUnlock()
	if !ok {
		return Locator{}, 0, ErrNotFound
	}
	per, head := partLayout(name)
	parts := (int(ref.Length) + head + per*chunk.IDSize - 1) / (head + per*chunk.IDSize)
	return ref, (int(ref.Length) - parts*head) / chunk.IDSize, nil
}

// manifest reads the n IDs of the manifest at ref, checking its records'
// CRCs (they parsed when the catalog took them in). Damage is ErrCorrupt
// naming the container.
func (cs *containerStore) manifest(name string, ref Locator, n int) ([]chunk.ID, error) {
	raw, err := cs.read(ref.Container, []Extent{{Off: ref.Offset, Len: ref.Length}})
	var ids []chunk.ID
	var bad error
	if err == nil {
		err = parseRecords(raw, func(_ chunk.ID, data []byte) {
			_, _, part, perr := decodeManifestPart(data)
			ids, bad = append(ids, part...), cmp.Or(bad, perr)
		})
	}
	if err == nil && bad == nil && len(ids) != n {
		bad = fmt.Errorf("%w: %d IDs in parts sized for %d", ErrCorrupt, len(ids), n)
	}
	if err = cmp.Or(err, bad); err != nil {
		return nil, fmt.Errorf("%w: manifest %q in container %d: %v", ErrCorrupt, name, ref.Container, err)
	}
	return ids, nil
}

// manifestIDs returns the IDs [first, end) of the manifest at ref,
// reading only their bytes out of its part records, whose CRCs it
// therefore cannot check; a restore's first page has (readPage).
func (cs *containerStore) manifestIDs(name string, ref Locator, first, end int) ([]chunk.ID, error) {
	per, head := partLayout(name)
	var extents []Extent
	for j := first; j < end; {
		n := min(end, (j/per+1)*per) - j
		off := j/per*(head+per*chunk.IDSize) + head + j%per*chunk.IDSize
		extents = append(extents, Extent{Off: ref.Offset + uint32(off), Len: uint32(n * chunk.IDSize)})
		j += n
	}
	if len(extents) == 0 {
		return nil, nil
	}
	raw, err := cs.read(ref.Container, extents)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest %q in container %d: %v", ErrCorrupt, name, ref.Container, err)
	}
	return decodeManifestIDs(raw)
}

// recipe returns the getrecipe response locating the named manifest's
// chunks.
func (cs *containerStore) recipe(name string) ([]byte, error) {
	ref, n, err := cs.manifestRef(name)
	if err != nil {
		return nil, err
	}
	ids, err := cs.manifest(name, ref, n)
	if err != nil {
		return nil, err
	}
	return encodeRecipe(cs.locateAll(ids)), nil
}

// locateAll is locate for a whole manifest under one hold of the lock:
// the recipe is one view of the index (no seal lands between two of its
// entries) and a long recipe queues behind a waiting uploader once, not
// once per chunk.
func (cs *containerStore) locateAll(ids []chunk.ID) []RecipeEntry {
	entries := make([]RecipeEntry, len(ids))
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for i, id := range ids {
		entries[i] = RecipeEntry{ID: id, Loc: cs.loc[id]}
	}
	return entries
}

// read returns the named extents of a container, concatenated, or all of
// it for no extents. The store plans the extents from its index and
// catalog; ones that are not non-empty, strictly ascending and
// non-overlapping, or end past the container, are ErrCorrupt, so a reply
// is never larger than the container. The open container — the log's
// container 0 — is read under the lock, which keeps appends and its seal
// out; a sealed container never changes, so the lock is held only to see
// that it is sealed and its read must not make uploads wait. An open
// container with no records is not found, as an unknown one is.
func (cs *containerStore) read(id uint64, extents []Extent) ([]byte, error) {
	var end uint64
	for i, e := range extents {
		if e.Len == 0 || (i > 0 && uint64(e.Off) < end) {
			return nil, fmt.Errorf("%w: extent %d is empty, overlapping or out of order", ErrCorrupt, i)
		}
		end = uint64(e.Off) + uint64(e.Len)
	}
	cs.mu.RLock()
	open := id == cs.openID && cs.openSize > 0
	sealed := id != 0 && id < cs.openID
	from := id
	if open {
		from = 0
		defer cs.mu.RUnlock()
	} else {
		cs.mu.RUnlock()
	}
	if !open && !sealed {
		return nil, fmt.Errorf("%w: container %d", ErrNotFound, id)
	}
	return cs.log.read(from, extents)
}

// planExtents returns, per container of a recipe, what to read of it:
// the records the entries need — each whole, header included, so the
// read is checked as a container is — sorted, with duplicates and
// neighbours merged into one extent. A locator that cannot address a
// record, container 0 included, fails here.
func planExtents(recipe []RecipeEntry) (map[uint64][]Extent, error) {
	first := uint32(len(containerMagic) + containerRecordHeader) // a container's first payload
	plan := make(map[uint64][]Extent)
	for _, e := range recipe {
		l := e.Loc
		if l.Container == 0 || l.Offset < first || uint64(l.Offset)+uint64(l.Length) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: chunk %s: locator %d+%d is not a record of container %d", ErrCorrupt, e.ID, l.Offset, l.Length, l.Container)
		}
		plan[l.Container] = append(plan[l.Container], Extent{Off: l.Offset - containerRecordHeader, Len: l.Length + containerRecordHeader})
	}
	for id, extents := range plan {
		slices.SortFunc(extents, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
		merged := extents[:1]
		for _, e := range extents[1:] {
			last := &merged[len(merged)-1]
			if end := last.Off + last.Len; e.Off > end {
				merged = append(merged, e)
			} else if e.Off+e.Len > end {
				last.Len = e.Off + e.Len - last.Off
			}
		}
		plan[id] = merged
	}
	return plan, nil
}

// readPayloads reads the payloads of entries out of their containers,
// each container once, checking the record CRCs and that each chunk's
// record is the one its locator names. It returns every distinct payload
// by ID, and how many containers it read. Damage is ErrCorrupt naming the
// container.
func (cs *containerStore) readPayloads(entries []RecipeEntry) (map[chunk.ID][]byte, int, error) {
	plan, err := planExtents(entries)
	if err != nil {
		return nil, 0, err
	}
	need := make(map[chunk.ID]Locator, len(entries))
	for _, e := range entries {
		need[e.ID] = e.Loc
	}
	found := make(map[chunk.ID][]byte, len(need))
	for c, extents := range plan {
		raw, err := cs.read(c, extents)
		if err == nil {
			err = parseRecords(raw, func(id chunk.ID, data []byte) {
				if need[id].Container == c {
					found[id] = data
				}
			})
		}
		if err != nil {
			return nil, 0, fmt.Errorf("container %d: %w", c, err)
		}
	}
	for id, l := range need {
		if data, ok := found[id]; !ok || len(data) != int(l.Length) {
			return nil, 0, fmt.Errorf("%w: chunk %s is not the %d-byte record its locator names in container %d", ErrCorrupt, id, l.Length, l.Container)
		}
	}
	return found, len(plan), nil
}

// sparseContainers returns, for a manifest's chunk sequence, the set of
// sealed containers the manifest references at or below the sparse
// limit — the containers whose chunks fragment a restore of this stream.
func (cs *containerStore) sparseContainers(ids []chunk.ID) map[uint64]bool {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	refs := make(map[uint64]int)
	seen := make(map[chunk.ID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if l, ok := cs.loc[id]; ok && l.Container != cs.openID {
			refs[l.Container]++
		}
	}
	sparse := make(map[uint64]bool)
	for c, n := range refs {
		if n <= cs.sparseRefLimit {
			sparse[c] = true
		}
	}
	return sparse
}
