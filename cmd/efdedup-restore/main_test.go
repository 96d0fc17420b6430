package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"efdedup/internal/cloudstore"
	"efdedup/internal/transport"
)

// startCloud runs a disk-backed cloud store on a memory network and
// returns a connected client plus the data directory.
func startCloud(t *testing.T) (*cloudstore.Client, *cloudstore.Server, string) {
	t.Helper()
	dir := t.TempDir()
	nw := transport.NewMemNetwork()
	srv, err := cloudstore.NewServer(cloudstore.Config{Dir: dir, ContainerBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	cl, err := cloudstore.Dial(context.Background(), nw, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, srv, dir
}

func listTempFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

func TestRestoreToFileStreamsAndRenames(t *testing.T) {
	cl, srv, _ := startCloud(t)
	ctx := context.Background()
	data := bytes.Repeat([]byte("restore me 0123456789"), 8000)
	if _, err := cl.UploadRaw(ctx, "img", data); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	outDir := t.TempDir()
	out := filepath.Join(outDir, "restored.bin")
	st, err := restoreToFile(ctx, cl, "img", out, cloudstore.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored file differs")
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("stats.Bytes = %d, want %d", st.Bytes, len(data))
	}
	if tmps := listTempFiles(t, outDir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestRestoreToFileFailureLeavesTargetUntouched corrupts the stored
// container so the restore fails mid-stream, then asserts the atomic
// output protocol: a pre-existing file at -out survives byte-identically
// and no temp file is left behind.
func TestRestoreToFileFailureLeavesTargetUntouched(t *testing.T) {
	cl, srv, storeDir := startCloud(t)
	ctx := context.Background()
	data := bytes.Repeat([]byte("will be damaged 0123456789"), 8000)
	if _, err := cl.UploadRaw(ctx, "img", data); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	conts, err := filepath.Glob(filepath.Join(storeDir, "containers", "*.cont"))
	if err != nil || len(conts) == 0 {
		t.Fatalf("no containers (err=%v)", err)
	}
	raw, err := os.ReadFile(conts[len(conts)-1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(conts[len(conts)-1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	outDir := t.TempDir()
	out := filepath.Join(outDir, "restored.bin")
	previous := []byte("precious previous restore")
	if err := os.WriteFile(out, previous, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreToFile(ctx, cl, "img", out, cloudstore.RestoreOptions{}); err == nil {
		t.Fatal("restore over a corrupt container succeeded")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, previous) {
		t.Fatal("failed restore clobbered the existing output file")
	}
	if tmps := listTempFiles(t, outDir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}
