package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"efdedup/internal/transport"
)

// TestServerDiskPersistenceAcrossRestart uploads through the RPC surface,
// restarts the server on the same directory and verifies the index, the
// stats and the data all survive.
func TestServerDiskPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	nw := transport.NewMemNetwork()

	srv, err := NewServer(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	cl, err := Dial(context.Background(), nw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := bytes.Repeat([]byte("persist me 0123456789"), 2000)
	if _, err := cl.UploadRaw(ctx, "durable-file", data); err != nil {
		t.Fatal(err)
	}
	statsBefore := srv.Stats()
	cl.Close()
	srv.Close()

	// Restart on the same directory.
	srv2, err := NewServer(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	nw2 := transport.NewMemNetwork()
	l2, err := nw2.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv2.Serve(l2)
	defer srv2.Close()
	cl2, err := Dial(context.Background(), nw2, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	st := srv2.Stats()
	if st.UniqueChunks != statsBefore.UniqueChunks || st.UniqueBytes != statsBefore.UniqueBytes {
		t.Fatalf("restart lost index: %+v vs %+v", st, statsBefore)
	}
	if st.Manifests != 1 {
		t.Fatalf("restart lost manifests: %+v", st)
	}
	got, err := cl2.Restore(ctx, "durable-file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored data differs after restart")
	}
	// Re-uploading known content stores nothing new.
	stored, err := cl2.UploadRaw(ctx, "durable-file-2", data)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 0 {
		t.Fatalf("re-upload after restart stored %d chunks, want 0", stored)
	}
}

func TestNewDiskStoreValidation(t *testing.T) {
	if _, err := NewDiskStore(""); err == nil {
		t.Fatal("empty root accepted")
	}
	// Past 1 GiB a container outgrows one getcontainer reply, and past
	// 4 GiB its u32 record offsets would wrap.
	if _, err := NewServer(Config{ContainerBytes: 1 << 32}); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewServer with 4 GiB containers = %v, want ErrConfig", err)
	}
}

// serveDir starts a disk-backed cloud on dir without registering a
// Close, so a test can end it with crash instead.
func serveDir(t *testing.T, cfg Config) (*Client, *Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, srv), srv
}

// serve starts srv on a fresh memory network and returns a client.
func serve(t *testing.T, srv *Server) *Client {
	t.Helper()
	nw := transport.NewMemNetwork()
	l, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	cl, err := Dial(context.Background(), nw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// crash ends a server the way a killed process does: no flush, no seal,
// whatever was acknowledged is on disk and nothing else is promised.
func crash(srv *Server) { srv.rpc.Close() }

// TestCrashWithoutCloseKeepsAcknowledgedChunks kills a disk-backed
// server with acknowledged chunks still in the open container. The
// restarted server must hold every one of them, report the same
// counters, restore the manifest byte-identically — reading the unsealed
// tail out of the recovered open container with one request, as it does
// each sealed one — and seal under a fresh container ID.
func TestCrashWithoutCloseKeepsAcknowledgedChunks(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ContainerBytes: 16 << 10}
	cl, srv := serveDir(t, cfg)
	data := uploadStream(t, cl, "acked", 31, 100_000) // 25 chunks: 6 sealed containers + an open tail
	before := srv.Stats()
	if before.ContainersSealed == 0 {
		t.Fatal("setup: nothing sealed")
	}
	crash(srv)

	cl2, srv2 := serveDir(t, cfg)
	defer srv2.Close()
	if after := srv2.Stats(); after.UniqueChunks != before.UniqueChunks || after.UniqueBytes != before.UniqueBytes ||
		after.ContainersSealed != before.ContainersSealed || after.Manifests != before.Manifests {
		t.Fatalf("stats after crash = %+v, want %+v", after, before)
	}
	ctx := context.Background()
	recipe, err := cl2.GetRecipe(ctx, "acked")
	if err != nil {
		t.Fatal(err)
	}
	open := uint64(before.ContainersSealed) + 1
	if last := recipe[len(recipe)-1].Loc.Container; last != open {
		t.Fatalf("setup: the stream's tail is in container %d, not the open container %d", last, open)
	}
	restore := func(when string) {
		t.Helper()
		var buf bytes.Buffer
		st, err := cl2.RestoreTo(ctx, "acked", &buf, RestoreOptions{})
		if err != nil {
			t.Fatalf("restore %s: %v", when, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("restore %s differs", when)
		}
		if st.ContainersTouched != int(open) || st.Pages != 1 {
			t.Fatalf("restore %s touched %d containers in %d pages, want %d and 1", when, st.ContainersTouched, st.Pages, open)
		}
	}
	restore("after the crash")

	// The recovered open container keeps filling and seals as the next ID.
	uploadStream(t, cl2, "later", 32, 8_000)
	srv2.FlushContainers()
	if got := srv2.Stats().ContainersSealed; got != before.ContainersSealed+1 {
		t.Fatalf("ContainersSealed = %d, want %d", got, before.ContainersSealed+1)
	}
	restore("after the seal")
}

// TestOpenContainerTornTailIsCutAtStartup appends what a crash mid-write
// leaves behind — half a record, or garbage — to the open container. The
// restarted server cuts the file back to the acknowledged prefix, serves
// everything in it, and appends cleanly after it.
func TestOpenContainerTornTailIsCutAtStartup(t *testing.T) {
	id, payload := mkPayload(77, 900)
	record := appendContainerRecord(nil, id, payload)
	tails := map[string][]byte{
		"half a record": record[:len(record)/2],
		"torn header":   record[:10],
		"garbage":       bytes.Repeat([]byte{0xA5}, 300),
		"crc mismatch":  flipByte(record, len(record)-1),
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Dir: dir}
			cl, srv := serveDir(t, cfg)
			data := uploadStream(t, cl, "acked", 41, 20_000)
			crash(srv)

			open := filepath.Join(dir, "containers", "open.cont")
			good, err := os.ReadFile(open)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(open, append(good[:len(good):len(good)], tail...), 0o644); err != nil {
				t.Fatal(err)
			}

			cl2, srv2 := serveDir(t, cfg)
			if fi, err := os.Stat(open); err != nil || fi.Size() != int64(len(good)) {
				t.Fatalf("open container not cut back to %d bytes: %v, %v", len(good), fi, err)
			}
			if got := srv2.Stats().UniqueChunks; got != 5 {
				t.Fatalf("UniqueChunks = %d, want the 5 acknowledged", got)
			}
			more := uploadStream(t, cl2, "later", 42, 10_000)
			crash(srv2)

			cl3, srv3 := serveDir(t, cfg)
			defer srv3.Close()
			for name, want := range map[string][]byte{"acked": data, "later": more} {
				got, err := cl3.Restore(context.Background(), name)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("restore %s differs", name)
				}
			}
		})
	}
}

// TestOldLayoutDirIsRefused: a root written by an older layout — staged
// flat chunk files, manifest files, or containers of an older format —
// holds state startup no longer reads; opening it would silently drop
// that state, so startup fails.
func TestOldLayoutDirIsRefused(t *testing.T) {
	id, data := mkPayload(5, 100)
	for name, c := range map[string]struct {
		path    string
		content []byte
		want    error
	}{
		"staged chunk":      {filepath.Join("chunks", id.String()[:2], id.String()+".chunk"), data, ErrConfig},
		"manifest file":     {filepath.Join("manifests", "backup"), id[:], ErrConfig},
		"EFCONT2 sealed":    {filepath.Join("containers", "0000000000000001.cont"), appendContainerRecord([]byte("EFCONT2\n"), id, data), ErrCorrupt},
		"EFCONT2 open.cont": {filepath.Join("containers", "open.cont"), appendContainerRecord([]byte("EFCONT2\n"), id, data), ErrCorrupt},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, c.path)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.content, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := NewServer(Config{Dir: dir}); !errors.Is(err, c.want) {
				t.Fatalf("NewServer on a root holding %s = %v, want %v", c.path, err, c.want)
			}
		})
	}
}

// TestStartupRefusesCorruptSealedContainer: a sealed container is
// installed atomically, so unlike the open one's tail its damage is
// data loss and must stop the server with ErrCorrupt naming it.
func TestStartupRefusesCorruptSealedContainer(t *testing.T) {
	dir := t.TempDir()
	cl, srv := serveDir(t, Config{Dir: dir})
	uploadStream(t, cl, "sealed", 51, 20_000)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "containers", "0000000000000001.cont")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipByte(raw, len(raw)/2), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewServer(Config{Dir: dir})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "container 1") {
		t.Fatalf("NewServer over a damaged sealed container = %v, want ErrCorrupt naming container 1", err)
	}
}
