package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
)

// packContainers uploads count chunks of random sizes in [minLen,maxLen)
// one batch per chunk, seals, and returns them in upload order.
func packContainers(t *testing.T, cl *Client, srv *Server, rng *rand.Rand, count, minLen, maxLen int) []chunk.Chunk {
	t.Helper()
	chunks := make([]chunk.Chunk, count)
	for i := range chunks {
		data := make([]byte, minLen+rng.Intn(maxLen-minLen))
		rng.Read(data)
		chunks[i] = chunk.Chunk{ID: chunk.Sum(data), Data: data}
	}
	if _, err := cl.BatchUpload(context.Background(), chunks); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()
	return chunks
}

// onBothLogs runs fn against an in-memory and a disk-backed server; dir
// is the disk-backed one's directory and empty otherwise.
func onBothLogs(t *testing.T, cfg Config, fn func(t *testing.T, cl *Client, srv *Server, dir string)) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			cfg := cfg
			if mode == "disk" {
				cfg.Dir = t.TempDir()
			}
			cl, srv := startCloud(t, cfg)
			fn(t, cl, srv, cfg.Dir)
		})
	}
}

// recordBounds fetches a whole sealed container and returns the start and
// end offset of every record in it.
func recordBounds(t *testing.T, cl *Client, id uint64) (starts, ends map[uint32]bool) {
	t.Helper()
	raw, err := cl.GetContainer(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	starts, ends = make(map[uint32]bool), make(map[uint32]bool)
	err = walkContainer(raw, func(_ chunk.ID, off uint32, payload []byte) error {
		starts[off-containerRecordHeader] = true
		ends[off+uint32(len(payload))] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return starts, ends
}

// TestExtentPlanProperties generates recipes — random subsets,
// permutations and repeats of chunks spread over several sealed
// containers, with A-B-A container revisits — and checks the plan
// (ascending, non-overlapping, record-aligned extents that cover each
// needed record exactly once and nothing else) and that every pipeline
// shape restores the same bytes, in memory and on disk.
func TestExtentPlanProperties(t *testing.T) {
	onBothLogs(t, Config{ContainerBytes: 8 << 10}, func(t *testing.T, cl *Client, srv *Server, dir string) {
		ctx := context.Background()
		rng := rand.New(rand.NewSource(41))
		chunks := packContainers(t, cl, srv, rng, 60, 100, 2000)
		if sealed := srv.Stats().ContainersSealed; sealed < 3 {
			t.Fatalf("only %d sealed containers", sealed)
		}

		for trial := 0; trial < 25; trial++ {
			// A random walk over the chunk list: short forward runs
			// (neighbours in one container), jumps (other containers
			// and back again) and immediate repeats.
			var ids []chunk.ID
			var want []byte
			at := rng.Intn(len(chunks))
			for n := 1 + rng.Intn(40); n > 0; n-- {
				switch rng.Intn(4) {
				case 0:
					at = rng.Intn(len(chunks))
				case 1: // repeat
				default:
					at = (at + 1) % len(chunks)
				}
				ids = append(ids, chunks[at].ID)
				want = append(want, chunks[at].Data...)
			}
			name := fmt.Sprintf("walk-%d", trial)
			if err := cl.PutManifest(ctx, name, ids); err != nil {
				t.Fatal(err)
			}
			recipe, err := cl.GetRecipe(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := planExtents(recipe)
			if err != nil {
				t.Fatal(err)
			}

			needed := make(map[Locator]bool)
			for _, e := range recipe {
				if e.Loc.Container == 0 {
					t.Fatalf("trial %d: chunk %s has no sealed copy", trial, e.ID)
				}
				needed[e.Loc] = true
			}
			planned := 0
			for id, extents := range plan {
				starts, ends := recordBounds(t, cl, id)
				for i, e := range extents {
					if e.Len == 0 || !starts[e.Off] || !ends[e.Off+e.Len] {
						t.Fatalf("trial %d: container %d extent %+v is not a run of whole records", trial, id, e)
					}
					if i > 0 && e.Off <= extents[i-1].Off+extents[i-1].Len {
						t.Fatalf("trial %d: container %d extents %+v, %+v overlap, touch or descend", trial, id, extents[i-1], e)
					}
					planned += int(e.Len)
				}
			}
			wantPlanned := 0
			for l := range needed {
				covers := 0
				for _, e := range plan[l.Container] {
					if e.Off <= l.Offset-containerRecordHeader && l.Offset+l.Length <= e.Off+e.Len {
						covers++
					}
				}
				if covers != 1 {
					t.Fatalf("trial %d: record %+v covered by %d extents", trial, l, covers)
				}
				wantPlanned += containerRecordHeader + int(l.Length)
			}
			if planned != wantPlanned {
				t.Fatalf("trial %d: plan fetches %d bytes, the needed records are %d", trial, planned, wantPlanned)
			}

			for _, ra := range []int{1, 4} {
				var buf bytes.Buffer
				st, err := cl.RestoreTo(ctx, name, &buf, RestoreOptions{ReadAhead: ra})
				if err != nil {
					t.Fatalf("trial %d ReadAhead=%d: %v", trial, ra, err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("trial %d ReadAhead=%d: output differs", trial, ra)
				}
				if st.Pages != 1 || st.ContainersTouched != len(plan) {
					t.Fatalf("trial %d: %d pages read %d containers, the plan names %d", trial, st.Pages, st.ContainersTouched, len(plan))
				}
			}
		}
	})
}

// TestRestoreFetchesOnlyNeededRecords restores a small stream whose
// chunks sit in many containers: it costs one RPC, and the bytes moved
// are the stream's payloads, not the containers'.
func TestRestoreFetchesOnlyNeededRecords(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 32 << 10})
	ctx := context.Background()
	chunks := packContainers(t, cl, srv, rand.New(rand.NewSource(43)), 100, 4096, 4097)

	var ids []chunk.ID
	var want []byte
	for i := 0; i < len(chunks); i += 7 { // one or two chunks of each container
		ids = append(ids, chunks[i].ID)
		want = append(want, chunks[i].Data...)
	}
	if err := cl.PutManifest(ctx, "scattered", ids); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := cl.RestoreTo(ctx, "scattered", &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("restored stream differs")
	}
	if st.ContainersTouched < 8 {
		t.Fatalf("ContainersTouched = %d, want a stream spread over >= 8", st.ContainersTouched)
	}
	if st.Pages != 1 {
		t.Fatalf("Pages = %d, want 1", st.Pages)
	}
	if float64(st.FetchedBytes) > 1.25*float64(st.Bytes) || st.FetchedBytes < st.Bytes {
		t.Fatalf("fetched %d bytes to restore %d", st.FetchedBytes, st.Bytes)
	}
}

// TestGetContainerRejectsHostileExtents drives the store's container
// read, which every restore page and getcontainer go through, against a
// sealed container and the open one: an extent list the container cannot
// serve in less than its own size — which only a damaged index can
// plan — is ErrCorrupt, and no reply is larger than the container. A
// getcontainer body that is not one container ID is a protocol error.
func TestGetContainerRejectsHostileExtents(t *testing.T) {
	onBothLogs(t, Config{}, func(t *testing.T, cl *Client, srv *Server, dir string) {
		rng := rand.New(rand.NewSource(47))
		packContainers(t, cl, srv, rng, 8, 1000, 1001)
		for _, id := range []uint64{0, 2, 1 << 40} { // no container, open without records, unknown
			_, err := srv.containers.read(id, []Extent{{Off: 8, Len: 1}})
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("container %d: err = %v, want ErrNotFound", id, err)
			}
		}
		for i := 0; i < 4; i++ {
			data := make([]byte, 1000)
			rng.Read(data)
			upload1(t, cl, chunk.Chunk{ID: chunk.Sum(data), Data: data})
		}

		for _, id := range []uint64{1, 2} { // sealed, open
			whole, err := srv.handleGetContainer(encodeContainerRequest(id))
			if err != nil {
				t.Fatal(err)
			}
			size := uint32(len(whole))

			flood := make([]Extent, 5000)
			for i := range flood {
				flood[i] = Extent{Off: 0, Len: size}
			}
			hostile := map[string][]Extent{
				"overlapping":    {{Off: 8, Len: 100}, {Off: 107, Len: 100}},
				"descending":     {{Off: 500, Len: 10}, {Off: 8, Len: 10}},
				"repeated":       {{Off: 8, Len: 10}, {Off: 8, Len: 10}},
				"zero length":    {{Off: 8, Len: 0}},
				"past end":       {{Off: size - 1, Len: 2}},
				"starts past":    {{Off: size + 10, Len: 1}},
				"u32 overflow":   {{Off: 16, Len: 1<<32 - 8}},
				"max everything": {{Off: 1<<32 - 1, Len: 1<<32 - 1}},
				"flood":          flood,
			}
			for name, extents := range hostile {
				resp, err := srv.containers.read(id, extents)
				if !errors.Is(err, ErrCorrupt) || resp != nil {
					t.Errorf("container %d, %s: %d bytes, err = %v; want ErrCorrupt", id, name, len(resp), err)
				}
			}

			served := []Extent{{Off: 0, Len: 8}, {Off: 8, Len: 40}, {Off: size - 5, Len: 5}}
			resp, err := srv.containers.read(id, served)
			if err != nil {
				t.Fatal(err)
			}
			want := append(append(append([]byte(nil), whole[:8]...), whole[8:48]...), whole[size-5:]...)
			if !bytes.Equal(resp, want) {
				t.Fatalf("container %d: extents are not the container's bytes in request order", id)
			}
			resp, err = srv.containers.read(id, []Extent{{Off: 0, Len: size}})
			if err != nil || !bytes.Equal(resp, whole) {
				t.Fatalf("container %d: whole-container extent: %d bytes, %v", id, len(resp), err)
			}
		}
		for _, n := range []int{0, 7, 9, 12, 15, 23} {
			if _, err := srv.handleGetContainer(make([]byte, n)); !errors.Is(err, ErrProto) {
				t.Errorf("body of %d bytes: err = %v, want ErrProto", n, err)
			}
		}
	})
}

// damageRecord flips one payload byte of a stored chunk inside its sealed
// container, in the file or in the in-memory log.
func damageRecord(t *testing.T, srv *Server, dir string, id chunk.ID) Locator {
	t.Helper()
	loc, ok := locate(srv.containers, id)
	if !ok || loc.Container > uint64(srv.Stats().ContainersSealed) {
		t.Fatalf("chunk %s is not in a sealed container", id)
	}
	at := loc.Offset + loc.Length/2
	if dir == "" {
		srv.containers.log.(*memLog).sealed[loc.Container][at] ^= 0xFF
		return loc
	}
	path := filepath.Join(dir, "containers", fmt.Sprintf("%016x.cont", loc.Container))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[at] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return loc
}

// TestRestoreChecksNeededRecords damages sealed containers one byte at a
// time: damage to a record the stream does not need is never fetched,
// damage to one it needs fails the restore with ErrCorrupt naming the
// container.
func TestRestoreChecksNeededRecords(t *testing.T) {
	onBothLogs(t, Config{ContainerBytes: 16 << 10}, func(t *testing.T, cl *Client, srv *Server, dir string) {
		ctx := context.Background()
		chunks := packContainers(t, cl, srv, rand.New(rand.NewSource(53)), 24, 2048, 2049)
		var ids []chunk.ID
		for i := 0; i < len(chunks); i += 2 {
			ids = append(ids, chunks[i].ID)
		}
		if err := cl.PutManifest(ctx, "evens", ids); err != nil {
			t.Fatal(err)
		}

		damageRecord(t, srv, dir, chunks[5].ID)
		if _, err := cl.Restore(ctx, "evens"); err != nil {
			t.Fatalf("damage outside the stream's records failed its restore: %v", err)
		}
		loc := damageRecord(t, srv, dir, chunks[10].ID)
		_, err := cl.Restore(ctx, "evens")
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("container %d", loc.Container)) {
			t.Fatalf("restore over a damaged needed record = %v, want ErrCorrupt naming container %d", err, loc.Container)
		}
	})
}

// TestRestoreRejectsLyingRecipe makes the server lie. Its index may lie
// about where a chunk's record is: every such page ends in ErrCorrupt
// naming the container — never a panic, never bytes from the wrong
// place. A zero locator, which a manifest naming a chunk the store lacks
// gets, names no container: the restore fails naming the chunk. Or its
// reply may lie about a payload: the client's hash check fails naming the
// chunk. Either way nothing is written.
func TestRestoreRejectsLyingRecipe(t *testing.T) {
	lies := map[string]func(l *Locator){
		"zero locator":                func(l *Locator) { *l = Locator{} },
		"offset in the magic":         func(l *Locator) { l.Offset = 4 },
		"offset in the first header":  func(l *Locator) { l.Offset = uint32(len(containerMagic)) + containerRecordHeader - 1 },
		"offset off by one":           func(l *Locator) { l.Offset++ },
		"offset in the next record":   func(l *Locator) { l.Offset += l.Length },
		"offset past the container":   func(l *Locator) { l.Offset = 1 << 30 },
		"length short":                func(l *Locator) { l.Length-- },
		"length long":                 func(l *Locator) { l.Length++ },
		"length one record long":      func(l *Locator) { l.Length += containerRecordHeader + l.Length },
		"length zero":                 func(l *Locator) { l.Length = 0 },
		"length overflows the offset": func(l *Locator) { l.Length = 1<<32 - 1 },
	}
	replyLies := map[string]func(p *pageReply, which int){
		"payload flipped":   func(p *pageReply, which int) { p.payloads[which][0] ^= 1 },
		"payload dropped":   func(p *pageReply, which int) { p.payloads = slices.Delete(p.payloads, which, which+1) },
		"payload truncated": func(p *pageReply, which int) { p.payloads[which] = p.payloads[which][:len(p.payloads[which])-1] },
	}
	for _, which := range []int{0, 3, 7} { // first, middle and last record of the container
		setup := func(t *testing.T) (*Client, *Server, []chunk.ID) {
			cl, srv := startCloud(t, Config{})
			ctx := context.Background()
			chunks := packContainers(t, cl, srv, rand.New(rand.NewSource(59)), 8, 512, 513)
			ids := make([]chunk.ID, len(chunks))
			for i, c := range chunks {
				ids[i] = c.ID
			}
			if err := cl.PutManifest(ctx, "all", ids); err != nil {
				t.Fatal(err)
			}
			if err := cl.PutManifest(ctx, "one", ids[which:which+1]); err != nil {
				t.Fatal(err)
			}
			return cl, srv, ids
		}
		check := func(t *testing.T, cl *Client, names string) {
			t.Helper()
			for _, manifest := range []string{"all", "one"} {
				var buf bytes.Buffer
				_, err := cl.RestoreTo(context.Background(), manifest, &buf, RestoreOptions{})
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), names) {
					t.Fatalf("%s: err = %v, want ErrCorrupt naming %s", manifest, err, names)
				}
				if buf.Len() != 0 {
					t.Fatalf("%s: %d bytes written before the lie failed the restore", manifest, buf.Len())
				}
			}
		}
		for name, lie := range lies {
			t.Run(fmt.Sprintf("record %d/%s", which, name), func(t *testing.T) {
				cl, srv, ids := setup(t)
				srv.containers.mu.Lock()
				l := srv.containers.loc[ids[which]]
				lie(&l)
				srv.containers.loc[ids[which]] = l
				srv.containers.mu.Unlock()

				names := "container 1"
				if l == (Locator{}) {
					names = ids[which].String()
				}
				check(t, cl, names)
			})
		}
		for name, lie := range replyLies {
			t.Run(fmt.Sprintf("record %d/reply %s", which, name), func(t *testing.T) {
				cl, srv, ids := setup(t)
				srv.rpc.Handle(methodRead, func(body []byte) ([]byte, error) {
					resp, err := srv.handleRead(body)
					if err != nil {
						return nil, err
					}
					p, err := decodePage(resp)
					if err != nil {
						return nil, err
					}
					at := slices.Index(p.ids, ids[which]) // the page's payloads are in ID order
					lie(&p, at)
					return encodePage(p), nil
				})
				check(t, cl, ids[which].String())
			})
		}
	}
}

// TestFailedRestoreKeepsItsAccounting fails a restore mid-stream: the
// returned stats and the cloud_restore_* counters still say what it
// fetched.
func TestFailedRestoreKeepsItsAccounting(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	uploadChunked(t, cl, "doomed", 61, 400_000, 512)
	srv.FlushContainers()

	reg := metrics.Default()
	pages := reg.Counter("cloud_restore_pages_total")
	fetched := reg.Counter("cloud_restore_fetched_bytes_total")
	restored := reg.Counter("cloud_restore_bytes_total")
	pages0, fetched0, restored0 := pages.Value(), fetched.Value(), restored.Value()

	st, err := cl.RestoreTo(context.Background(), "doomed", &failAfterWriter{n: 50_000}, RestoreOptions{ReadAhead: 2})
	if err == nil {
		t.Fatal("restore into a failing writer succeeded")
	}
	if st.Pages == 0 || st.ContainersTouched == 0 || st.FetchedBytes < st.Bytes || st.Bytes == 0 || st.Bytes > 50_000 {
		t.Fatalf("stats of the failed restore: %+v", st)
	}
	if got := pages.Value() - pages0; got != int64(st.Pages) {
		t.Fatalf("cloud_restore_pages_total moved by %d, stats say %d", got, st.Pages)
	}
	if got := fetched.Value() - fetched0; got != st.FetchedBytes {
		t.Fatalf("cloud_restore_fetched_bytes_total moved by %d, stats say %d", got, st.FetchedBytes)
	}
	if got := restored.Value() - restored0; got != st.Bytes {
		t.Fatalf("cloud_restore_bytes_total moved by %d, stats say %d", got, st.Bytes)
	}
}

// parkedLog is an in-memory container log whose sealed reads wait for
// the test: the stand-in for a slow disk.
type parkedLog struct {
	*memLog
	reading, release chan struct{}
}

func (l *parkedLog) read(container uint64, extents []Extent) ([]byte, error) {
	if container != 0 {
		l.reading <- struct{}{}
		<-l.release
	}
	return l.memLog.read(container, extents)
}

// TestSealedReadDoesNotHoldTheStoreLock parks a restore's container read
// inside the log and requires an upload and an index probe to finish
// meanwhile: sealed containers are immutable, so reading one must not
// make the store's writers (and, behind a queued writer, its readers)
// wait for the disk.
func TestSealedReadDoesNotHoldTheStoreLock(t *testing.T) {
	log := &parkedLog{memLog: newMemLog(), reading: make(chan struct{}), release: make(chan struct{})}
	cs := newContainerStore(log, 1<<20, 0, DefaultSparseRefLimit)
	first, second := mkChunk("sealed"), mkChunk("uploaded during the read")
	if _, err := cs.put([]chunk.Chunk{first}, "", nil); err != nil {
		t.Fatal(err)
	}
	cs.flush()

	read := make(chan error, 1)
	go func() {
		data, err := cs.read(1, []Extent{{Off: uint32(len(containerMagic)), Len: containerRecordHeader + uint32(len(first.Data))}})
		if err == nil && !bytes.HasSuffix(data, first.Data) {
			err = errors.New("extent is not the record")
		}
		read <- err
	}()
	<-log.reading

	done := make(chan error, 1)
	go func() {
		_, err := cs.put([]chunk.Chunk{second}, "", nil)
		if has := cs.has([]chunk.ID{first.ID, second.ID}); err == nil && (has[0] != 1 || has[1] != 1) {
			err = fmt.Errorf("has = %v", has)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("put and has waited for a sealed-container read")
	}
	close(log.release)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}

// TestRestoresRunBesideUploadsAndSeals restores one stream from several
// goroutines while another client's uploads keep sealing containers:
// sealed reads take no store lock, so -race is what checks that they
// share nothing with the writer.
func TestRestoresRunBesideUploadsAndSeals(t *testing.T) {
	onBothLogs(t, Config{ContainerBytes: 8 << 10}, func(t *testing.T, cl *Client, srv *Server, dir string) {
		ctx := context.Background()
		chunks := packContainers(t, cl, srv, rand.New(rand.NewSource(71)), 40, 500, 1500)
		ids := make([]chunk.ID, len(chunks))
		for i, c := range chunks {
			ids[i] = c.ID
		}
		if err := cl.PutManifest(ctx, "steady", ids); err != nil {
			t.Fatal(err)
		}
		want := flatten(chunks)

		restorers := make(chan error, 3)
		for r := 0; r < cap(restorers); r++ {
			go func() {
				for i := 0; i < 20; i++ {
					got, err := cl.Restore(ctx, "steady")
					if err == nil && !bytes.Equal(got, want) {
						err = errors.New("restore beside uploads differs")
					}
					if err != nil {
						restorers <- err
						return
					}
				}
				restorers <- nil
			}()
		}
		rng := rand.New(rand.NewSource(73))
		for i := 0; i < 20; i++ {
			fresh := make([]chunk.Chunk, 12)
			for j := range fresh {
				data := make([]byte, 1000)
				rng.Read(data)
				fresh[j] = chunk.Chunk{ID: chunk.Sum(data), Data: data}
			}
			if _, err := cl.BatchUpload(ctx, fresh); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < cap(restorers); r++ {
			if err := <-restorers; err != nil {
				t.Fatal(err)
			}
		}
		if sealed := srv.Stats().ContainersSealed; sealed < 20 {
			t.Fatalf("only %d containers sealed beside the restores", sealed)
		}
	})
}

// TestGetRecipeIsOneIndexView checks locateAll against locate entry by
// entry, sealed and unsealed chunks alike: only a chunk the store lacks
// gets the zero locator.
func TestGetRecipeIsOneIndexView(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 4 << 10})
	chunks := packContainers(t, cl, srv, rand.New(rand.NewSource(67)), 20, 500, 900)
	open := mkChunk("still in the open container")
	upload1(t, cl, open)
	ids := []chunk.ID{open.ID, chunk.Sum([]byte("never stored"))}
	for _, c := range chunks {
		ids = append(ids, c.ID)
	}
	entries := srv.containers.locateAll(ids)
	if len(entries) != len(ids) {
		t.Fatalf("%d entries for %d ids", len(entries), len(ids))
	}
	for i, e := range entries {
		want, _ := locate(srv.containers, ids[i])
		if e.ID != ids[i] || e.Loc != want {
			t.Fatalf("entry %d = %+v, locate says %+v", i, e, want)
		}
	}
	openID := uint64(srv.Stats().ContainersSealed) + 1
	if entries[0].Loc.Container != openID || entries[1].Loc != (Locator{}) || entries[2].Loc.Container == 0 || entries[2].Loc.Container == openID {
		t.Fatalf("open/missing/sealed locators wrong (open container %d): %+v", openID, entries[:3])
	}
}

// TestRestoreSurvivesSealMidRestore takes a restore's plan while its
// stream sits in the open container, then seals that container and
// uploads a same-shaped stream whose records land at the same offsets of
// the next one: the planned extents still read the first stream's bytes,
// because a locator names the container by the ID it seals as. Then the
// race runs for real, straight into the read handler (run under -race):
// readers page streams in the open container while a writer appends to
// it and seals it, and every page is its intact chunks.
func TestRestoreSurvivesSealMidRestore(t *testing.T) {
	onBothLogs(t, Config{}, func(t *testing.T, cl *Client, srv *Server, dir string) {
		ctx := context.Background()
		data := uploadStream(t, cl, "first", 81, 40_000)
		recipe, err := cl.GetRecipe(ctx, "first")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planExtents(recipe)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) != 1 || plan[1] == nil {
			t.Fatalf("setup: the stream is planned from containers %v, want the open container 1", plan)
		}

		srv.FlushContainers()
		uploadStream(t, cl, "second", 82, 40_000)
		read := func(id uint64) []byte {
			t.Helper()
			raw, err := srv.containers.read(id, plan[1])
			if err != nil {
				t.Fatal(err)
			}
			var out []byte
			if err := parseRecords(raw, func(_ chunk.ID, payload []byte) { out = append(out, payload...) }); err != nil {
				t.Fatalf("container %d: %v", id, err)
			}
			return out
		}
		if got := read(1); !bytes.Equal(got, data) {
			t.Fatal("the planned extents of the sealed container no longer read the first stream")
		}
		if got := read(2); len(got) != len(data) || bytes.Equal(got, data) {
			t.Fatal("setup: the second stream's records are not at the first stream's offsets")
		}

		var buf bytes.Buffer
		st, err := cl.RestoreTo(ctx, "first", &buf, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) || st.ContainersTouched != 1 {
			t.Fatalf("restore after the seal: identical=%v, %d containers touched", bytes.Equal(buf.Bytes(), data), st.ContainersTouched)
		}

		// Each put stores one chunk and its one-chunk manifest s<i> in the
		// open container; readers page the newest manifest meanwhile.
		var newest atomic.Int64
		newest.Store(-1)
		stop := make(chan struct{})
		readers := make(chan error, 2)
		for r := 0; r < cap(readers); r++ {
			go func() {
				for {
					select {
					case <-stop:
						readers <- nil
						return
					default:
					}
					i := newest.Load()
					if i < 0 {
						continue
					}
					body, err := encodeReadRequest(fmt.Sprintf("s%d", i), 0)
					var resp []byte
					if err == nil {
						resp, err = srv.handleRead(body)
					}
					var p pageReply
					if err == nil {
						p, err = decodePage(resp)
					}
					if err == nil && (len(p.ids) != 1 || len(p.payloads) != 1 || chunk.Sum(p.payloads[0]) != p.ids[0]) {
						err = errors.New("page is not its one intact chunk")
					}
					if err != nil {
						readers <- fmt.Errorf("manifest s%d: %w", i, err)
						return
					}
				}
			}()
		}
		rng := rand.New(rand.NewSource(83))
		for i := 0; i < 200; i++ {
			data := make([]byte, 200)
			rng.Read(data)
			id := chunk.Sum(data)
			if _, err := srv.containers.put([]chunk.Chunk{{ID: id, Data: data}}, fmt.Sprintf("s%d", i), []chunk.ID{id}); err != nil {
				t.Fatal(err)
			}
			newest.Store(int64(i))
			if i%20 == 19 {
				srv.FlushContainers()
			}
		}
		close(stop)
		for r := 0; r < cap(readers); r++ {
			if err := <-readers; err != nil {
				t.Fatal(err)
			}
		}
	})
}
