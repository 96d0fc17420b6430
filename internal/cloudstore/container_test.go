package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"efdedup/internal/chunk"
	"efdedup/internal/reclog"
)

func mkPayload(seed int64, n int) (chunk.ID, []byte) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return chunk.Sum(data), data
}

// walkContainer walks a whole container — magic, then records — and
// hands fn every chunk with its data's offset in raw, skipping manifest
// records.
func walkContainer(raw []byte, fn func(id chunk.ID, off uint32, payload []byte) error) error {
	if !bytes.HasPrefix(raw, containerMagic) {
		return fmt.Errorf("%w: container missing magic", ErrCorrupt)
	}
	var ferr error
	off := uint32(len(containerMagic))
	err := parseRecords(raw[len(containerMagic):], func(id chunk.ID, data []byte) {
		if ferr == nil && id != manifestTag {
			ferr = fn(id, off+containerRecordHeader, data)
		}
		off += containerRecordHeader + uint32(len(data))
	})
	if err != nil {
		return err
	}
	return ferr
}

func TestContainerRecordRoundTrip(t *testing.T) {
	buf := append([]byte(nil), containerMagic...)
	var want []chunk.Chunk
	for _, s := range []string{"alpha", "beta", "a much longer third chunk payload"} {
		c := mkChunk(s)
		want = append(want, c)
		buf = appendContainerRecord(buf, c.ID, c.Data)
	}
	var got []chunk.Chunk
	err := walkContainer(buf, func(id chunk.ID, off uint32, payload []byte) error {
		if !bytes.Equal(buf[off:off+uint32(len(payload))], payload) {
			t.Fatalf("offset %d does not address payload", off)
		}
		got = append(got, chunk.Chunk{ID: id, Data: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestParseContainerDetectsDamage(t *testing.T) {
	c := mkChunk("payload under test")
	good := appendContainerRecord(append([]byte(nil), containerMagic...), c.ID, c.Data)
	nop := func(chunk.ID, uint32, []byte) error { return nil }

	cases := map[string][]byte{
		"bad magic":         append([]byte("NOTCONT\n"), good[len(containerMagic):]...),
		"flipped payload":   flipByte(good, len(good)-1),
		"flipped crc":       flipByte(good, len(containerMagic)+5),
		"flipped id":        flipByte(good, len(containerMagic)+reclog.HeaderSize+3),
		"truncated payload": good[:len(good)-3],
		"truncated header":  good[:len(containerMagic)+10],
	}
	for name, data := range cases {
		if err := walkContainer(data, nop); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if err := walkContainer(good, nop); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
}

// locate returns the locator of a chunk's newest copy.
func locate(cs *containerStore, id chunk.ID) (Locator, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	l, ok := cs.loc[id]
	return l, ok
}

// readChunk reads one stored chunk's payload out of its container.
func readChunk(cs *containerStore, id chunk.ID) ([]byte, error) {
	loc, ok := locate(cs, id)
	if !ok {
		return nil, ErrNotFound
	}
	found, _, err := cs.readPayloads([]RecipeEntry{{ID: id, Loc: loc}})
	return found[id], err
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// storeChunks puts payloads straight into the container store, the way
// an upload handler does after verifying them.
func storeChunks(t *testing.T, srv *Server, ids []chunk.ID, payloads [][]byte) {
	t.Helper()
	chunks := make([]chunk.Chunk, len(ids))
	for i := range ids {
		chunks[i] = chunk.Chunk{ID: ids[i], Data: payloads[i]}
	}
	stored, err := srv.containers.put(chunks, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stored != len(chunks) {
		t.Fatalf("stored %d of %d fresh chunks", stored, len(chunks))
	}
}

// TestOpenContainerIsTheOnlyCopy verifies the one-copy protocol on
// disk: a chunk is readable from the open container as soon as its
// upload returns, under the ID that container will seal as; after the
// seal it is read from the sealed file, and the directory never holds
// anything but containers.
func TestOpenContainerIsTheOnlyCopy(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Dir: dir, ContainerBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var ids []chunk.ID
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		id, data := mkPayload(int64(100+i), 700) // 3 chunks per 2 KiB container
		ids = append(ids, id)
		payloads = append(payloads, data)
	}
	storeChunks(t, srv, ids, payloads)

	// 8 chunks at 3 per container: two sealed, two chunks still open.
	if loc, _ := locate(srv.containers, ids[7]); loc.Container != 3 {
		t.Fatalf("chunk in the open container has locator %+v, want container 3", loc)
	}
	if _, err := os.Stat(filepath.Join(dir, "containers", "open.cont")); err != nil {
		t.Fatalf("no open container file: %v", err)
	}
	check := func(when string) {
		t.Helper()
		for i, id := range ids {
			got, err := readChunk(srv.containers, id)
			if err != nil {
				t.Fatalf("chunk %d unreadable %s: %v", i, when, err)
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("chunk %d payload differs %s", i, when)
			}
		}
	}
	check("before the flush")
	srv.FlushContainers()
	check("after the flush")

	for i, id := range ids {
		if loc, _ := locate(srv.containers, id); loc.Container != uint64(i/3+1) {
			t.Fatalf("chunk %d has locator %+v after the flush, want container %d", i, loc, i/3+1)
		}
	}
	if st := srv.Stats(); st.ContainersSealed != 3 {
		t.Fatalf("ContainersSealed = %d, want 3", st.ContainersSealed)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "containers" {
			t.Errorf("unexpected %q in the store directory", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "containers", "open.cont")); !os.IsNotExist(err) {
		t.Fatalf("open container file left after the flush: %v", err)
	}
}

// TestLoadContainersRecovery restarts a disk-backed server and verifies
// the locator index, stats and data all come back from container files,
// and that container IDs keep growing instead of colliding.
func TestLoadContainersRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Dir: dir, ContainerBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var ids []chunk.ID
	var payloads [][]byte
	for i := 0; i < 6; i++ {
		id, data := mkPayload(int64(200+i), 700)
		ids = append(ids, id)
		payloads = append(payloads, data)
	}
	storeChunks(t, srv, ids, payloads)
	srv.FlushContainers()
	sealedBefore := srv.Stats().ContainersSealed
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(Config{Dir: dir, ContainerBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for i, id := range ids {
		got, err := readChunk(srv2.containers, id)
		if err != nil {
			t.Fatalf("chunk %d unreadable after restart: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("chunk %d differs after restart", i)
		}
	}
	if st := srv2.Stats(); st.ContainersSealed != sealedBefore {
		t.Fatalf("ContainersSealed after restart = %d, want %d", st.ContainersSealed, sealedBefore)
	}
	// New containers must not collide with recovered ones.
	id, data := mkPayload(999, 1500)
	storeChunks(t, srv2, []chunk.ID{id}, [][]byte{data})
	srv2.FlushContainers()
	loc, ok := locate(srv2.containers, id)
	if !ok {
		t.Fatal("post-restart chunk has no locator")
	}
	if loc.Container <= uint64(sealedBefore) {
		t.Fatalf("post-restart container ID %d collides with recovered %d", loc.Container, sealedBefore)
	}
}

func TestSelectiveDuplicationBudget(t *testing.T) {
	cs := newContainerStore(newMemLog(), 1<<20, 0.10, DefaultSparseRefLimit)
	put := func(id chunk.ID, data []byte) {
		t.Helper()
		if n, err := cs.put([]chunk.Chunk{{ID: id, Data: data}}, "", nil); n != 1 || err != nil {
			t.Fatalf("unique put stored %d chunks, err %v", n, err)
		}
	}
	id, data := mkPayload(1, 1000)
	put(id, data)
	// Budget is 10% of 1000 unique bytes = 100; a 1000-byte dup copy
	// must be refused, a small one admitted.
	if cs.repack(id, data) {
		t.Fatal("over-budget duplicate admitted")
	}
	small, smallData := mkPayload(2, 80)
	put(small, smallData)
	if !cs.repack(small, smallData) {
		t.Fatal("within-budget duplicate refused (budget 108, copy 80)")
	}
	if cs.repack(small, smallData) {
		t.Fatal("budget spent but another duplicate admitted")
	}
}

// TestRepackSparseDuplicatesHotChunks stores stream A, seals it, then
// stores a later stream that reuses one chunk of A. That lone reference
// marks A's container sparse, so the shared chunk is repacked into the
// new stream's container and the locator moves to the denser copy.
func TestRepackSparseDuplicatesHotChunks(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 1 << 20, DupFraction: 0.5})
	ctx := context.Background()

	var aChunks []chunk.Chunk
	var aIDs []chunk.ID
	for i := 0; i < 10; i++ {
		_, data := mkPayload(int64(300+i), 1000)
		c := chunk.Chunk{ID: chunk.Sum(data), Data: data}
		aChunks = append(aChunks, c)
		aIDs = append(aIDs, c.ID)
	}
	if _, err := cl.BatchUpload(ctx, aChunks); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, "backup-1", aIDs); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()
	oldLoc, ok := locate(srv.containers, aIDs[0])
	if !ok {
		t.Fatal("stream A chunk has no locator after seal")
	}

	// Stream B: mostly fresh data plus one chunk shared with A.
	var bChunks []chunk.Chunk
	bIDs := []chunk.ID{aIDs[0]}
	for i := 0; i < 6; i++ {
		_, data := mkPayload(int64(400+i), 1000)
		c := chunk.Chunk{ID: chunk.Sum(data), Data: data}
		bChunks = append(bChunks, c)
		bIDs = append(bIDs, c.ID)
	}
	if _, err := cl.BatchUpload(ctx, bChunks); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, "backup-2", bIDs); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	newLoc, ok := locate(srv.containers, aIDs[0])
	if !ok {
		t.Fatal("shared chunk lost its locator")
	}
	if newLoc.Container <= oldLoc.Container {
		t.Fatalf("shared chunk not repacked: container %d -> %d", oldLoc.Container, newLoc.Container)
	}
	if st := srv.Stats(); st.DuplicatedBytes < 1000 {
		t.Fatalf("DuplicatedBytes = %d, want >= 1000", st.DuplicatedBytes)
	}
	// The duplicated copy restores byte-identically.
	got, err := cl.Restore(ctx, "backup-2")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), aChunks[0].Data...), flatten(bChunks)...)
	if !bytes.Equal(got, want) {
		t.Fatal("restore after repack differs")
	}
}

func flatten(chunks []chunk.Chunk) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

// TestRestoreNamesCorruptContainer flips one byte inside a sealed
// container on disk — of a chunk record, or of the manifest record — and
// asserts the restore fails with ErrCorrupt naming the damaged container.
func TestRestoreNamesCorruptContainer(t *testing.T) {
	for _, record := range []string{"chunk", "manifest"} {
		t.Run(record, func(t *testing.T) {
			dir := t.TempDir()
			cl, srv := startCloud(t, Config{Dir: dir, ContainerBytes: 1 << 20})
			ctx := context.Background()

			data := bytes.Repeat([]byte("corrupt-me 0123456789"), 3000)
			if _, err := cl.UploadRaw(ctx, "victim", data); err != nil {
				t.Fatal(err)
			}
			srv.FlushContainers()
			recipe, err := cl.GetRecipe(ctx, "victim")
			if err != nil {
				t.Fatal(err)
			}
			at := recipe[0].Loc.Offset + recipe[0].Loc.Length - 1
			if record == "manifest" {
				ref := srv.containers.catalog["victim"]
				at = ref.Offset + ref.Length - 1
			}

			path := filepath.Join(dir, "containers", "0000000000000001.cont")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, flipByte(raw, int(at)), 0o644); err != nil {
				t.Fatal(err)
			}

			_, err = cl.Restore(ctx, "victim")
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("restore over corrupt container = %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), "container 1") {
				t.Fatalf("error does not name the container: %v", err)
			}
		})
	}
}

// TestRestoreDetectsCorruptOpenContainer flips a payload byte of an
// unsealed chunk in the open container file; the restore checks the
// open container's records as it does a sealed one's and must surface
// ErrCorrupt.
func TestRestoreDetectsCorruptOpenContainer(t *testing.T) {
	dir := t.TempDir()
	cl, _ := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	c := mkChunk("soon to be damaged on disk")
	upload1(t, cl, c)
	if err := cl.PutManifest(ctx, "fragile", []chunk.ID{c.ID}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "containers", "open.cont")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Restore(ctx, "fragile"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("restore over corrupt open container = %v, want ErrCorrupt", err)
	}
}

// TestOpenContainerPayloadsStayValid holds payload slices served from
// the in-memory open container while further uploads grow its buffer,
// seal it and build the next container in it: the slices are copies and
// must not change, and the stream restores the same before and after the
// seal.
func TestOpenContainerPayloadsStayValid(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 64 << 10})
	ctx := context.Background()

	first := make([]chunk.Chunk, 4)
	ids := make([]chunk.ID, len(first))
	held := make([][]byte, len(first))
	for i := range first {
		id, data := mkPayload(int64(700+i), 1000)
		first[i], ids[i] = chunk.Chunk{ID: id, Data: data}, id
	}
	if _, err := cl.Commit(ctx, "first", ids, first); err != nil {
		t.Fatal(err)
	}
	for i, c := range first {
		p, err := readChunk(srv.containers, c.ID)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = p
	}
	restore := func(when string) {
		t.Helper()
		got, err := cl.Restore(ctx, "first")
		if err != nil {
			t.Fatalf("restore %s: %v", when, err)
		}
		if !bytes.Equal(got, flatten(first)) {
			t.Fatalf("restore %s differs", when)
		}
	}
	restore("from the open container")
	// 100 KB more: the 64 KiB container's buffer is regrown several
	// times, seals, and a second one starts.
	uploadStream(t, cl, "filler", 71, 100_000)
	if srv.Stats().ContainersSealed == 0 {
		t.Fatal("setup: the container never sealed")
	}
	for i, c := range first {
		if !bytes.Equal(held[i], c.Data) {
			t.Fatalf("payload %d changed under a held slice", i)
		}
	}
	restore("after the seal")
}

// TestOpenReadsSurviveBufferReuse reads a record of the open container,
// whole and as an extent, seals the container, and writes a full next
// container over the buffer the seal gave back: the bytes read earlier
// must be unchanged. A read that aliased the open buffer would see the
// next container's bytes. One P, so that the pool hands the buffer back
// (a pool keeps an item per P), and several rounds, so that a round in
// which it does not (the race detector drops pool items at random)
// cannot hide it.
func TestOpenReadsSurviveBufferReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := newMemLog()
	for round := uint64(1); round <= 8; round++ {
		id, data := mkPayload(int64(round), 1000)
		off, err := m.append(id, data)
		if err != nil {
			t.Fatal(err)
		}
		extent, err := m.read(0, []Extent{{Off: off, Len: uint32(len(data))}})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := m.read(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(whole)
		if err := m.seal(2*round - 1); err != nil {
			t.Fatal(err)
		}
		next, filler := mkPayload(-int64(round), 4000) // covers the record read above
		if _, err := m.append(next, filler); err != nil {
			t.Fatal(err)
		}
		if err := m.seal(2 * round); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(extent, data) || !bytes.Equal(whole, want) {
			t.Fatalf("round %d: a read of the open container changed when the next container reused its buffer", round)
		}
	}
}

// TestStoreCopiesEachByteOnce stores chunks worth several containers
// into an in-memory store and counts the bytes it allocates per byte
// stored: in steady state a chunk's bytes are copied once, into the
// sealed container, and the open container's buffer is reused rather
// than regrown (growing it by append copied each byte about four times
// more).
func TestStoreCopiesEachByteOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so allocation counts vary")
	}
	// One P: a pool keeps an item per P, and a goroutine moved to
	// another P between a seal and the next append would miss the buffer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const containerBytes, chunkBytes, batch = 1 << 20, 8 << 10, 32
	cs := newContainerStore(newMemLog(), containerBytes, 0, DefaultSparseRefLimit)
	chunks := make([]chunk.Chunk, 6*containerBytes/chunkBytes)
	for i := range chunks {
		id, data := mkPayload(int64(9000+i), chunkBytes)
		chunks[i] = chunk.Chunk{ID: id, Data: data}
	}
	put := func(chunks []chunk.Chunk) {
		t.Helper()
		for len(chunks) > 0 {
			n := min(batch, len(chunks))
			if stored, err := cs.put(chunks[:n], "", nil); stored != n || err != nil {
				t.Fatalf("put stored %d of %d chunks, err %v", stored, n, err)
			}
			chunks = chunks[n:]
		}
	}
	// Two collections empty openBufs of the smaller buffers earlier
	// tests left in it; then the first container grows the buffer that
	// every later one reuses.
	runtime.GC()
	runtime.GC()
	warm := 2 * containerBytes / chunkBytes
	put(chunks[:warm])
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	put(chunks[warm:])
	runtime.ReadMemStats(&m1)
	stored := len(chunks[warm:]) * chunkBytes
	perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(stored)
	t.Logf("%.3f bytes allocated per byte stored", perByte)
	if perByte > 1.1 {
		t.Errorf("storing %d bytes allocated %.2f bytes per byte, want at most 1.1", stored, perByte)
	}
}

// TestConcurrentUploadsAndReads has several clients upload overlapping
// chunk sets while others probe and restore them — out of open
// containers that appends grow and seals install meanwhile — on both
// kinds of container log (run under -race): every distinct chunk is
// stored once.
func TestConcurrentUploadsAndReads(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{ContainerBytes: 8 << 10}
			if mode == "disk" {
				cfg.Dir = t.TempDir()
			}
			cl, srv := startCloud(t, cfg)
			ctx := context.Background()

			const distinct = 60
			all := make([]chunk.Chunk, distinct)
			ids := make([]chunk.ID, distinct)
			for i := range all {
				id, data := mkPayload(int64(800+i), 500)
				all[i], ids[i] = chunk.Chunk{ID: id, Data: data}, id
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for off := 0; off < distinct; off += 10 {
						start := (off + 10*w) % distinct // each worker walks the same batches from its own offset
						if _, err := cl.BatchUpload(ctx, all[start:start+10]); err != nil {
							t.Error(err)
							return
						}
						has, err := cl.BatchHas(ctx, ids[start:start+10])
						if err != nil {
							t.Error(err)
							return
						}
						for i, ok := range has {
							if !ok {
								t.Errorf("chunk %d not found after its upload", start+i)
							}
						}
						name := fmt.Sprintf("w%d-%d", w, start)
						if err := cl.PutManifest(ctx, name, ids[start:start+10]); err != nil {
							t.Error(err)
							return
						}
						got, err := cl.Restore(ctx, name)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, flatten(all[start:start+10])) {
							t.Errorf("restore of chunks %d-%d differs", start, start+9)
						}
					}
				}(w)
			}
			wg.Wait()
			if err := cl.PutManifest(ctx, "all", ids); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Restore(ctx, "all")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, flatten(all)) {
				t.Fatal("restore of concurrently uploaded chunks differs")
			}
			if st := srv.Stats(); st.UniqueChunks != distinct || st.UniqueBytes != distinct*500 {
				t.Fatalf("stats = %+v, want %d chunks stored once", st, distinct)
			}
		})
	}
}
