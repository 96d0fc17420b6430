package cloudstore

// Regression tests for the restore-path satellite bugfixes. Each test
// fails on the pre-fix code:
//
//   - the manifest handler and the raw-upload manifest path used to
//     update the in-memory catalog before the durable write, advertising
//     manifests a restart would not have;
//   - the server accepted empty / "." / ".." manifest names;
//   - a chunk the disk refused was reported as a duplicate, so the
//     upload RPC succeeded for a chunk the cloud did not hold.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"efdedup/internal/chunk"
)

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

// breakStoreDir replaces a directory of the store with a plain file, so
// that creating a file in it fails (works even as root, where permission
// bits would not).
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

// TestPutManifestDurableFirst fails the container-log sync that would
// make a commit's manifest record durable and asserts the server does
// NOT advertise the manifest from memory — whether the commit carries no
// tail or a tail that shares the failed sync.
func TestPutManifestDurableFirst(t *testing.T) {
	ctx := context.Background()
	c, tail := mkChunk("manifest body chunk"), mkChunk("tail chunk")
	commits := map[string]func(cl *Client) error{
		"phantom": func(cl *Client) error { return cl.PutManifest(ctx, "phantom", []chunk.ID{c.ID}) },
		"phantom-tail": func(cl *Client) error {
			_, err := cl.Commit(ctx, "phantom-tail", []chunk.ID{c.ID, tail.ID}, []chunk.Chunk{tail})
			return err
		},
	}
	for name, commit := range commits {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cl, srv := startCloud(t, Config{Dir: dir})
			upload1(t, cl, c)
			srv.FlushContainers() // the next record starts a new open.cont, which cannot be created
			breakStoreDir(t, dir, "containers")

			if err := commit(cl); err == nil {
				t.Fatal("commit succeeded with a broken disk")
			}
			if _, err := cl.GetManifest(ctx, name); !errors.Is(err, ErrNotFound) {
				t.Fatalf("failed durable write still advertised: GetManifest(%s) = %v, want ErrNotFound", name, err)
			}
			if st := srv.Stats(); st.Manifests != 0 || st.UniqueChunks != 1 {
				t.Fatalf("stats after a failed commit: %+v, want 0 manifests and only the chunk acked before", st)
			}
		})
	}
}

// TestUploadRawManifestDurableFirst covers the same ordering on the raw
// upload path: a manifest whose sync failed must not exist.
func TestUploadRawManifestDurableFirst(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	breakStoreDir(t, dir, "containers")
	if _, err := cl.UploadRaw(ctx, "phantom-raw", []byte("some raw stream data")); err == nil {
		t.Fatal("UploadRaw succeeded with a broken container log")
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
	if n, err := cs.put([]chunk.Chunk{kept}, "", nil); n != 1 || err != nil {
		t.Fatalf("put = %d, %v", n, err)
	}

	log.err = errors.New("fsync: input/output error")
	if n, err := cs.put([]chunk.Chunk{kept, lost}, "", nil); n != 0 || !errors.Is(err, log.err) {
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
	if _, err := cs.put([]chunk.Chunk{later}, "", nil); err == nil {
		t.Fatal("writer accepted an upload after its log failed")
	}
	if got, err := readChunk(cs, kept.ID); err != nil || string(got) != "kept" {
		t.Fatalf("acknowledged chunk after the failure = %q, %v", got, err)
	}
}
