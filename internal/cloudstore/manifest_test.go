package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"efdedup/internal/chunk"
	"efdedup/internal/reclog"
)

// TestAnyNameSurvivesRestart commits names a file-per-manifest layout
// could not keep — a temp-file prefix its startup skipped, names longer
// than a file name once escaped — and restores each byte-identically
// after a restart, as the in-memory cloud does.
func TestAnyNameSurvivesRestart(t *testing.T) {
	names := []string{".tmp-report", strings.Repeat("n", 300), strings.Repeat("/", 100)}
	cfg := Config{Dir: t.TempDir()}
	cl, srv := serveDir(t, cfg)
	want := make(map[string][]byte)
	for i, name := range names {
		want[name] = uploadStream(t, cl, name, int64(60+i), 9_000)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	cl2, srv2 := serveDir(t, cfg)
	defer srv2.Close()
	if got := srv2.Stats().Manifests; got != int64(len(names)) {
		t.Fatalf("Manifests after restart = %d, want %d", got, len(names))
	}
	for _, name := range names {
		got, err := cl2.Restore(context.Background(), name)
		if err != nil || !bytes.Equal(got, want[name]) {
			t.Fatalf("restore %.20q… after restart: identical=%v, %v", name, bytes.Equal(got, want[name]), err)
		}
	}
}

// committed is one acked commit: the version of name it made, and where
// its manifest's records lie.
type committed struct {
	name string
	data []byte
	ref  Locator
}

// commitStream commits data, split into size-byte chunks, as name: the
// chunks the cloud lacks go in the commit's tail.
func commitStream(t *testing.T, cl *Client, srv *Server, name string, data []byte, size int) committed {
	t.Helper()
	var ids []chunk.ID
	var tail []chunk.Chunk
	for off := 0; off < len(data); off += size {
		ck := chunk.Chunk{Data: data[off:min(off+size, len(data))]}
		ck.ID = chunk.Sum(ck.Data)
		ids = append(ids, ck.ID)
		if srv.containers.has([]chunk.ID{ck.ID})[0] == 0 {
			tail = append(tail, ck)
		}
	}
	if _, err := cl.Commit(context.Background(), name, ids, tail); err != nil {
		t.Fatal(err)
	}
	srv.containers.mu.RLock()
	ref := srv.containers.catalog[name]
	srv.containers.mu.RUnlock()
	return committed{name, data, ref}
}

// recordEnds returns where each record of a log file ends, after the
// magic's own end.
func recordEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	ends := []int{len(containerMagic)}
	for off := len(containerMagic); off < len(raw); {
		_, n, st := reclog.Next(raw[off:])
		if st != reclog.OK {
			t.Fatalf("record at %d: status %d", off, st)
		}
		off += n
		ends = append(ends, off)
	}
	return ends
}

// cutRoot builds a fresh root holding the sealed containers of dir and,
// as its open container, open: what a crash would leave if it cut the
// open container there.
func cutRoot(t *testing.T, dir string, open []byte) string {
	t.Helper()
	root := t.TempDir()
	sealed, err := filepath.Glob(filepath.Join(dir, "containers", "0*.cont"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "containers"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range sealed {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "containers", filepath.Base(path)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "containers", "open.cont"), open, 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// restoreEquals restores name and checks it against want.
func restoreEquals(t *testing.T, cl *Client, name string, want []byte) {
	t.Helper()
	got, err := cl.Restore(context.Background(), name)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restore %s: identical=%v, %v", name, bytes.Equal(got, want), err)
	}
}

// TestCrashCutOpenContainer commits streams — fresh tails, shared chunks,
// one name twice — over a few small containers, then cuts the open
// container at every record boundary and one byte either side of it, as
// a crash mid-write would. Each restart must succeed, catalogue exactly
// the commits whose manifest record survived whole (the newest surviving
// version of each name), count each name once, and restore every one
// byte-identically.
func TestCrashCutOpenContainer(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), ContainerBytes: 6 << 10}
	cl, srv := serveDir(t, cfg)
	rng := rand.New(rand.NewSource(91))
	fresh := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	a1 := fresh(3 << 10)
	b := append(fresh(2<<10), a1[:2<<10]...)
	a2 := append(fresh(2<<10), b[:1<<10]...)
	var commits []committed
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"a", a1}, {"b", b}, {"a", a2}, {"c", append(a1[1<<10:], b...)}, {"d", fresh(3 << 10)}, {"e", a2}, {"f", fresh(1 << 10)},
	} {
		commits = append(commits, commitStream(t, cl, srv, c.name, c.data, 1<<10))
	}
	openID := uint64(srv.Stats().ContainersSealed) + 1
	if openID == 1 || commits[len(commits)-1].ref.Container != openID || commits[0].ref.Container == openID {
		t.Fatalf("setup: want manifests both sealed and open, got open container %d and %+v", openID, commits)
	}
	crash(srv)
	open, err := os.ReadFile(filepath.Join(cfg.Dir, "containers", "open.cont"))
	if err != nil {
		t.Fatal(err)
	}

	cuts := map[int]bool{}
	for _, end := range recordEnds(t, open) {
		for _, cut := range []int{end - 1, end, end + 1} {
			if cut >= 0 && cut <= len(open) {
				cuts[cut] = true
			}
		}
	}
	sorted := make([]int, 0, len(cuts))
	for cut := range cuts {
		sorted = append(sorted, cut)
	}
	sort.Ints(sorted)
	for _, cut := range sorted {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			want := map[string][]byte{}
			for _, c := range commits {
				if c.ref.Container < openID || int(c.ref.Offset+c.ref.Length) <= cut {
					want[c.name] = c.data
				}
			}
			cl2, srv2 := serveDir(t, Config{Dir: cutRoot(t, cfg.Dir, open[:cut]), ContainerBytes: cfg.ContainerBytes})
			defer srv2.Close()
			if got := srv2.Stats().Manifests; got != int64(len(want)) {
				t.Fatalf("Manifests = %d, want %d", got, len(want))
			}
			for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
				if data, ok := want[name]; ok {
					restoreEquals(t, cl2, name, data)
				} else if _, err := cl2.GetRecipe(context.Background(), name); !errors.Is(err, ErrNotFound) {
					t.Fatalf("GetRecipe(%s) = %v, want ErrNotFound", name, err)
				}
			}
		})
	}
	t.Logf("%d cut points over %d bytes of open container", len(cuts), len(open))
}

// TestLargeManifestSpansRecords commits a manifest too long for one
// record: it spans two part records, survives a restart and restores. A
// crash that cuts between its parts leaves the previous version, and a
// version committed after that restart is not taken for the torn one's
// continuation.
func TestLargeManifestSpansRecords(t *testing.T) {
	cfg := Config{Dir: t.TempDir()}
	cl, srv := serveDir(t, cfg)
	ctx := context.Background()
	old := commitStream(t, cl, srv, "big", []byte("the previous version"), 8)
	pool := make([]chunk.Chunk, 16)
	for i := range pool {
		id, data := mkPayload(int64(300+i), 8)
		pool[i] = chunk.Chunk{ID: id, Data: data}
	}
	ids := make([]chunk.ID, 600_000)
	var want []byte
	for i := range ids {
		ids[i] = pool[i%len(pool)].ID
		want = append(want, pool[i%len(pool)].Data...)
	}
	if _, err := cl.Commit(ctx, "big", ids, pool); err != nil {
		t.Fatal(err)
	}
	srv.containers.mu.RLock()
	ref := srv.containers.catalog["big"]
	srv.containers.mu.RUnlock()
	crash(srv)
	open, err := os.ReadFile(filepath.Join(cfg.Dir, "containers", "open.cont"))
	if err != nil {
		t.Fatal(err)
	}
	var between []int
	for _, end := range recordEnds(t, open) {
		if uint32(end) > ref.Offset && uint32(end) < ref.Offset+ref.Length {
			between = append(between, end)
		}
	}
	if len(between) != 1 || int(ref.Offset+ref.Length) != len(open) {
		t.Fatalf("setup: manifest at %+v has part boundaries %v, want one, ending the %d-byte open container", ref, between, len(open))
	}

	whole, srv1 := serveDir(t, Config{Dir: cutRoot(t, cfg.Dir, open)})
	restoreEquals(t, whole, "big", want)
	srv1.Close()

	root := cutRoot(t, cfg.Dir, open[:between[0]])
	torn, srv2 := serveDir(t, Config{Dir: root})
	restoreEquals(t, torn, "big", old.data)
	newer := commitStream(t, torn, srv2, "big", want[:64], 8) // no tail: its record follows the torn part
	crash(srv2)
	again, srv3 := serveDir(t, Config{Dir: root})
	defer srv3.Close()
	restoreEquals(t, again, "big", newer.data)
	if got := srv3.Stats().Manifests; got != 1 {
		t.Fatalf("Manifests = %d, want 1", got)
	}
}

// BenchmarkCommitDisk times one commit on a disk-backed cloud: a
// one-chunk tail and a 256-ID manifest naming 255 stored chunks and the
// tail, the shape that ends a stream.
func BenchmarkCommitDisk(b *testing.B) {
	srv, err := NewServer(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ids := make([]chunk.ID, 256)
	stored := make([]chunk.Chunk, 255)
	for i := range stored {
		id, data := mkPayload(int64(i), chunk.DefaultFixedSize)
		stored[i], ids[i] = chunk.Chunk{ID: id, Data: data}, id
	}
	body, err := encodeCommit("warm-up", stored, ids[:255])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.handleCommit(body); err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		id, data := mkPayload(int64(1000+i), chunk.DefaultFixedSize)
		ids[255] = id
		if bodies[i], err = encodeCommit(fmt.Sprintf("stream-%d", i), []chunk.Chunk{{ID: id, Data: data}}, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for _, body := range bodies {
		if _, err := srv.handleCommit(body); err != nil {
			b.Fatal(err)
		}
	}
}
