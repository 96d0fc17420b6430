package reclog

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// frame builds one frame the way callers do.
func frame(dst, payload []byte) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	dst = append(dst, payload...)
	EndFrame(dst[start:])
	return dst
}

func TestFrameRoundTripAndStatuses(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{7}, 1000)}
	var buf []byte
	for _, p := range payloads {
		buf = frame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, n, st := Next(rest)
		if st != OK || !bytes.Equal(got, want) || n != HeaderSize+len(want) {
			t.Fatalf("frame %d: Next = %q, %d, %v", i, got, n, st)
		}
		rest = rest[n:]
	}
	if _, _, st := Next(rest); st != EOF {
		t.Fatalf("after the last frame: %v, want EOF", st)
	}

	one := frame(nil, []byte("payload under test"))
	flip := func(i int) []byte {
		out := bytes.Clone(one)
		out[i] ^= 0xFF
		return out
	}
	cases := map[string]struct {
		b    []byte
		want Status
	}{
		"torn header":       {one[:5], Torn},
		"torn payload":      {one[:len(one)-1], Torn},
		"flipped payload":   {flip(len(one) - 1), Corrupt},
		"flipped crc":       {flip(5), Corrupt},
		"impossible length": {append([]byte{0x7F, 0xFF, 0xFF, 0xFF}, one[4:]...), Corrupt},
	}
	for name, c := range cases {
		if p, n, st := Next(c.b); st != c.want || p != nil || n != 0 {
			t.Errorf("%s: Next = %v, %d, %v; want nil, 0, %v", name, p, n, st, c.want)
		}
	}
}

// TestFramingDoesNotAllocate: the writer fills the caller's buffer in
// place and the parser returns a sub-slice.
func TestFramingDoesNotAllocate(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 512)
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		b := frame(buf[:0], payload)
		if _, _, st := Next(b); st != OK {
			t.Fatal(st)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per frame written and parsed, want 0", n)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	temps := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	write := func(s string) func(*bufio.Writer) error {
		return func(w *bufio.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, write("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, write("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second" {
		t.Fatalf("installed file = %q, %v", got, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("installed file mode = %v, %v; want 0644", fi.Mode(), err)
	}

	// A failing fill leaves the old file and no temp file.
	boom := errors.New("boom")
	err = WriteFileAtomic(path, func(w *bufio.Writer) error {
		io.WriteString(w, "half a file")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed fill returned %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("failed install clobbered the target: %q", got)
	}
	// So does a failing rename (the target is a non-empty directory).
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(sub, write("x")); err == nil {
		t.Fatal("install over a directory succeeded")
	}
	if left := temps(); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestFileOpsReleaseDescriptors: every file this package opens is closed
// again on every path out, the failing ones included — a descriptor
// leaked per snapshot or seal exhausts the daemon's fd table during the
// restart drills. Counted through /proc/self/fd, so Linux only.
func TestFileOpsReleaseDescriptors(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors in")
		}
		return len(ents)
	}
	dir := t.TempDir()
	magic := []byte("FDTEST1\n")
	exercise := func() {
		if err := SyncDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
			t.Fatal("SyncDir of a missing directory succeeded")
		}
		path := filepath.Join(dir, "atomic")
		if err := WriteFileAtomic(path, func(w *bufio.Writer) error { _, err := w.WriteString("x"); return err }); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, func(*bufio.Writer) error { return io.ErrUnexpectedEOF }); err == nil {
			t.Fatal("WriteFileAtomic ignored its fill's failure")
		}
		logPath := filepath.Join(dir, "log")
		l, _, err := Open(logPath, magic, func([]byte) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(frame(nil, []byte("payload"))); err != nil {
			t.Fatal(err)
		}
		if err := l.SealAs(filepath.Join(dir, "sealed")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(frame(nil, []byte("payload"))); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// A torn tail: Open truncates it, then the log is abandoned.
		f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write([]byte{1, 2, 3})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if l, _, err = Open(logPath, magic, func([]byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if err := l.Abandon(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(logPath); err != nil {
			t.Fatal(err)
		}
	}
	exercise() // the runtime opens its poller's descriptors on first use
	before := openFDs()
	for range 3 {
		exercise()
	}
	if after := openFDs(); after != before {
		t.Fatalf("%d descriptors open after the file operations, %d before", after, before)
	}
}
