package cloudstore

// Regression tests for the restore-path satellite bugfixes. Each test
// fails on the pre-fix code:
//
//   - escapeName used to leave '%' unescaped, so "a%2Fb" and "a/b"
//     collided on disk and ManifestNames un-escaped literal "%2F";
//   - the manifest handler and the raw-upload manifest path used to
//     update the in-memory catalog before the durable disk write,
//     advertising manifests a restart would not have;
//   - the server accepted empty / "." / ".." manifest names;
//   - a chunk the disk refused was reported as a duplicate, so the
//     upload RPC succeeded for a chunk the cloud did not hold.

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"efdedup/internal/chunk"
)

func TestEscapeNamePercentCollisionRegression(t *testing.T) {
	// The exact pre-fix collision: both names escaped to "a%2Fb".
	if escapeName("a%2Fb") == escapeName("a/b") {
		t.Fatalf("escapeName is not injective: %q and %q collide at %q",
			"a%2Fb", "a/b", escapeName("a/b"))
	}
	// A literal-percent name must round-trip exactly.
	for _, name := range []string{"a%2Fb", "100%", "%", "%%25", "a%5Cb:c", "%2F%2F"} {
		if got := unescapeName(escapeName(name)); got != name {
			t.Errorf("round trip %q -> %q -> %q", name, escapeName(name), got)
		}
	}
}

// TestEscapeNameInjectiveProperty drives random names over the hostile
// alphabet and checks (1) exact round trips, (2) no two distinct names
// share an escaped form, (3) escaped forms contain no path separators.
func TestEscapeNameInjectiveProperty(t *testing.T) {
	alphabet := []rune{'a', 'b', '%', '/', '\\', ':', '2', '5', 'F', 'C', 'A', '.', '-', 'é'}
	rng := rand.New(rand.NewSource(42))
	seen := make(map[string]string)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		name := sb.String()
		esc := escapeName(name)
		if got := unescapeName(esc); got != name {
			t.Fatalf("round trip %q -> %q -> %q", name, esc, got)
		}
		if strings.ContainsAny(esc, "/\\") {
			t.Fatalf("escaped form %q still has a path separator", esc)
		}
		if prev, ok := seen[esc]; ok && prev != name {
			t.Fatalf("collision: %q and %q both escape to %q", prev, name, esc)
		}
		seen[esc] = name
	}
}

// TestManifestNamesPreservesLiteralEscapes stores two once-colliding
// names through a real DiskStore and checks both files exist and list
// back exactly.
func TestManifestNamesPreservesLiteralEscapes(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []chunk.ID{chunk.Sum([]byte("x"))}
	ids2 := []chunk.ID{chunk.Sum([]byte("y"))}
	if err := d.PutManifest("a/b", ids); err != nil {
		t.Fatal(err)
	}
	if err := d.PutManifest("a%2Fb", ids2); err != nil {
		t.Fatal(err)
	}
	got1, err := d.GetManifest("a/b")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := d.GetManifest("a%2Fb")
	if err != nil {
		t.Fatal(err)
	}
	if got1[0] != ids[0] || got2[0] != ids2[0] {
		t.Fatal("colliding names overwrote each other")
	}
	names, err := d.ManifestNames()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a/b": true, "a%2Fb": true}
	if len(names) != 2 || !want[names[0]] || !want[names[1]] {
		t.Fatalf("ManifestNames = %v", names)
	}
}

func TestServerRejectsInvalidManifestNames(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()
	id := chunk.Sum([]byte("z"))
	for _, name := range []string{"", ".", ".."} {
		if err := cl.PutManifest(ctx, name, []chunk.ID{id}); !errors.Is(err, ErrProto) {
			t.Errorf("PutManifest(%q) = %v, want ErrProto", name, err)
		}
	}
	for _, name := range []string{".", ".."} {
		if _, err := cl.UploadRaw(ctx, name, []byte("data")); !errors.Is(err, ErrProto) {
			t.Errorf("UploadRaw(%q) = %v, want ErrProto", name, err)
		}
	}
	if srv.Stats().Manifests != 0 {
		t.Fatalf("rejected names still registered manifests: %+v", srv.Stats())
	}
}

// breakManifestDir replaces the store's manifests directory with a plain
// file so every subsequent durable manifest write fails (works even as
// root, where permission bits would not).
func breakManifestDir(t *testing.T, dir string) { breakStoreDir(t, dir, "manifests") }

func breakStoreDir(t *testing.T, dir, sub string) {
	t.Helper()
	mdir := filepath.Join(dir, sub)
	if err := os.RemoveAll(mdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mdir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPutManifestDurableFirst injects a disk failure into the manifest
// write and asserts the server does NOT advertise the manifest from
// memory — the durable write must come first — whether the commit
// carries no tail or a tail that was stored before the manifest write
// failed.
func TestPutManifestDurableFirst(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	c, tail := mkChunk("manifest body chunk"), mkChunk("tail chunk")
	upload1(t, cl, c)
	breakManifestDir(t, dir)

	if err := cl.PutManifest(ctx, "phantom", []chunk.ID{c.ID}); err == nil {
		t.Fatal("PutManifest succeeded with a broken disk")
	}
	if _, err := cl.Commit(ctx, "phantom-tail", []chunk.ID{c.ID, tail.ID}, []chunk.Chunk{tail}); err == nil {
		t.Fatal("Commit succeeded with a broken disk")
	}
	for _, name := range []string{"phantom", "phantom-tail"} {
		if _, err := cl.GetManifest(ctx, name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("failed durable write still advertised: GetManifest(%s) = %v, want ErrNotFound", name, err)
		}
	}
	if st := srv.Stats(); st.Manifests != 0 || st.UniqueChunks != 2 {
		t.Fatalf("stats after failed manifest writes: %+v, want 0 manifests and both chunks", st)
	}
}

// TestUploadRawManifestDurableFirst covers the same ordering bug on the
// mixed raw-upload path: chunks may land, but a manifest whose durable
// write failed must not exist.
func TestUploadRawManifestDurableFirst(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	breakManifestDir(t, dir)
	if _, err := cl.UploadRaw(ctx, "phantom-raw", []byte("some raw stream data")); err == nil {
		t.Fatal("UploadRaw succeeded with a broken manifest dir")
	}
	if _, err := cl.GetManifest(ctx, "phantom-raw"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed durable write still advertised: %v", err)
	}
	if st := srv.Stats(); st.Manifests != 0 {
		t.Fatalf("Manifests = %d, want 0", st.Manifests)
	}
}

// TestUploadFailsWhenContainerLogFails breaks the containers directory
// and asserts the upload RPCs fail instead of acknowledging chunks the
// store does not hold: nothing may reach the index or the counters, and
// chunks acknowledged before the failure stay readable.
func TestUploadFailsWhenContainerLogFails(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	kept := mkChunk("acknowledged before the disk broke")
	upload1(t, cl, kept)
	srv.FlushContainers()
	before := srv.Stats()
	breakStoreDir(t, dir, "containers")

	lost := mkChunk("never durable")
	if n, err := cl.BatchUpload(ctx, []chunk.Chunk{lost}); err == nil {
		t.Fatalf("BatchUpload with a broken disk acknowledged %d chunks", n)
	}
	if _, err := cl.UploadRaw(ctx, "raw", []byte("raw stream the disk cannot take")); err == nil {
		t.Fatal("UploadRaw succeeded with a broken disk")
	}
	has, err := cl.BatchHas(ctx, []chunk.ID{lost.ID, kept.ID})
	if err != nil {
		t.Fatal(err)
	}
	if has[0] || !has[1] {
		t.Fatalf("BatchHas = %v, want the refused chunk absent and the acknowledged one present", has)
	}
	after := srv.Stats()
	if after.UniqueChunks != before.UniqueChunks || after.UniqueBytes != before.UniqueBytes || after.Manifests != 0 {
		t.Fatalf("stats moved on failed uploads: %+v -> %+v", before, after)
	}
}

// syncFailLog is an in-memory container log whose sync can be made to
// fail: the records are appended but never become durable.
type syncFailLog struct {
	*memLog
	err error
}

func (l *syncFailLog) sync() error { return l.err }

// TestSyncFailurePublishesNothing drives the store through the log seam:
// when the sync covering a batch fails, no chunk of the batch is indexed,
// the error reaches the caller, the writer stays stopped, and chunks
// acknowledged earlier are still served.
func TestSyncFailurePublishesNothing(t *testing.T) {
	log := &syncFailLog{memLog: newMemLog()}
	cs := newContainerStore(log, 1<<20, 0, DefaultSparseRefLimit)
	kept, lost, later := mkChunk("kept"), mkChunk("lost"), mkChunk("later")
	if n, err := cs.put([]chunk.Chunk{kept}); n != 1 || err != nil {
		t.Fatalf("put = %d, %v", n, err)
	}

	log.err = errors.New("fsync: input/output error")
	if n, err := cs.put([]chunk.Chunk{kept, lost}); n != 0 || !errors.Is(err, log.err) {
		t.Fatalf("put over a failing sync = %d, %v; want 0 and the sync error", n, err)
	}
	if has := cs.has([]chunk.ID{kept.ID, lost.ID}); has[0] != 1 || has[1] != 0 {
		t.Fatalf("index after failed sync = %v, want only the acknowledged chunk", has)
	}
	var st Stats
	cs.addStats(&st)
	if st.UniqueChunks != 1 || st.UniqueBytes != int64(len(kept.Data)) {
		t.Fatalf("counters after failed sync = %+v", st)
	}

	log.err = nil
	if _, err := cs.put([]chunk.Chunk{later}); err == nil {
		t.Fatal("writer accepted an upload after its log failed")
	}
	if got, err := cs.readChunk(kept.ID); err != nil || string(got) != "kept" {
		t.Fatalf("acknowledged chunk after the failure = %q, %v", got, err)
	}
}
