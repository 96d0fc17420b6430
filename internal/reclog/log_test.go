package reclog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var testMagic = []byte("RLTEST1\n")

// collect returns a scan callback that copies every payload into *got.
func collect(got *[][]byte) func([]byte) bool {
	return func(p []byte) bool {
		*got = append(*got, bytes.Clone(p))
		return true
	}
}

// buildLog returns a log file's bytes — magic, then one frame per
// payload — and the offset each record ends at.
func buildLog(magic []byte, payloads [][]byte) (file []byte, ends []int) {
	file = bytes.Clone(magic)
	for _, p := range payloads {
		file = frame(file, p)
		ends = append(ends, len(file))
	}
	return file, ends
}

// checkOpen opens the file holding data and checks everything Open
// promises about any file: the delivered records are the first `want` of
// payloads (some in-order prefix of them when want is negative), the stats
// account for every byte, the file is cut to its valid prefix, and the
// log is appendable — an append and a reopen replay prefix + new record.
func checkOpen(t *testing.T, path string, magic, data []byte, payloads [][]byte, want int) Stats {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	l, st, err := Open(path, magic, collect(&got))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if (want >= 0 && len(got) != want) || (payloads != nil && len(got) > len(payloads)) {
		t.Fatalf("replayed %d records, want %d of %d", len(got), want, len(payloads))
	}
	for i := 0; i < min(len(got), len(payloads)); i++ {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d replayed as %q, want %q", i, got[i], payloads[i])
		}
	}
	if st.Records != len(got) {
		t.Fatalf("stats count %d records, %d were delivered", st.Records, len(got))
	}
	if st.Bytes+st.TornBytes+st.CorruptBytes != int64(len(data)) {
		t.Fatalf("stats %+v do not account for the file's %d bytes", st, len(data))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != st.Bytes {
		t.Fatalf("file is %d bytes after Open, valid prefix is %d (%v)", fi.Size(), st.Bytes, err)
	}
	if l.Size() != st.Bytes {
		t.Fatalf("Size = %d, want %d", l.Size(), st.Bytes)
	}
	post := []byte("post-crash")
	if _, err := l.Append(frame(nil, post)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var again [][]byte
	st2, err := Scan(path, magic, collect(&again))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Discarded() != 0 || len(again) != len(got)+1 || !bytes.Equal(again[len(got)], post) {
		t.Fatalf("after append and reopen: %d records, stats %+v; want the %d replayed plus the new one", len(again), st2, len(got))
	}
	for i := range got {
		if !bytes.Equal(again[i], got[i]) {
			t.Fatalf("record %d changed across the reopen", i)
		}
	}
	return st
}

// TestOpenAtEveryCrashPoint enumerates what a crash or bit rot can do to
// a small log — every truncation length and every single-byte flip — and
// checks Open's verdict on each: an exact in-order prefix is replayed,
// truncations are torn (never corrupt), a damaged magic is refused
// without touching the file, and the log stays appendable.
func TestOpenAtEveryCrashPoint(t *testing.T) {
	payloads := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte("x"), 300),
		{0},
		{},
		[]byte("a somewhat longer sixth record payload"),
	}
	for _, magic := range [][]byte{testMagic, nil} {
		file, ends := buildLog(magic, payloads)
		intactBefore := func(off int) int { // records that end at or before off
			n := 0
			for n < len(ends) && ends[n] <= off {
				n++
			}
			return n
		}
		boundary := map[int]bool{0: true, len(magic): true} // cuts that tear nothing
		for _, end := range ends {
			boundary[end] = true
		}
		path := filepath.Join(t.TempDir(), "log")
		for cut := 0; cut <= len(file); cut++ {
			st := checkOpen(t, path, magic, file[:cut], payloads, intactBefore(cut))
			if st.CorruptBytes != 0 || (st.TornBytes > 0) == boundary[cut] {
				t.Fatalf("cut at %d: %+v; a truncation is torn, never corrupt", cut, st)
			}
		}
		for i := range file {
			data := bytes.Clone(file)
			data[i] ^= 0x40
			if i < len(magic) {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, _, err := Open(path, magic, collect(new([][]byte))); !errors.Is(err, ErrMagic) {
					t.Fatalf("flip at %d (in the magic): Open = %v, want ErrMagic", i, err)
				}
				if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, data) {
					t.Fatalf("flip at %d: a file of the wrong kind was modified", i)
				}
				continue
			}
			if st := checkOpen(t, path, magic, data, payloads, intactBefore(i)); st.Discarded() == 0 {
				t.Fatalf("flip at %d went unnoticed: %+v", i, st)
			}
		}
	}
}

// TestRejectedPayloadIsCorrupt: the caller's verdict on a CRC-valid
// payload stops the scan like a CRC failure does.
func TestRejectedPayloadIsCorrupt(t *testing.T) {
	file, ends := buildLog(nil, [][]byte{[]byte("ok"), []byte("ok"), []byte("bad"), []byte("ok")})
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Scan(path, nil, func(p []byte) bool { return string(p) == "ok" })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Bytes != int64(ends[1]) || st.CorruptBytes != int64(len(file)-ends[1]) || st.TornBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLogLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "open.log")
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}

	// A missing file is an empty log, and stays missing until a write.
	st, err := Scan(path, testMagic, collect(new([][]byte)))
	if err != nil || st != (Stats{}) {
		t.Fatalf("Scan of a missing file = %+v, %v", st, err)
	}
	l, st, err := Open(path, testMagic, collect(new([][]byte)))
	if err != nil || st != (Stats{}) || l.Size() != 0 {
		t.Fatalf("Open of a missing file = %+v, %v", st, err)
	}
	if err := l.Sync(); err != nil || exists(path) {
		t.Fatalf("Sync of an empty log: %v, file exists: %v", err, exists(path))
	}
	if err := l.SealAs(filepath.Join(dir, "sealed")); err == nil {
		t.Fatal("sealed an empty log")
	}
	l, _, err = Open(path, testMagic, collect(new([][]byte)))
	if err != nil {
		t.Fatal(err)
	}

	// Appends report where they land; the first one brings the magic.
	off, err := l.Append(frame(nil, []byte("one")))
	if err != nil || off != int64(len(testMagic)) {
		t.Fatalf("first Append at %d, %v", off, err)
	}
	off2, err := l.Append(frame(nil, []byte("two")))
	if err != nil || off2 != off+HeaderSize+3 || l.Size() != off2+HeaderSize+3 {
		t.Fatalf("second Append at %d (size %d), %v", off2, l.Size(), err)
	}
	if exists(path) {
		t.Fatal("file written before Sync")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != l.Size() {
		t.Fatalf("after Sync the file is %v bytes (%v), Size is %d", fi, err, l.Size())
	}

	// SealAs moves the file; the next append starts a new one.
	sealed := filepath.Join(dir, "0001.log")
	if err := l.SealAs(sealed); err != nil {
		t.Fatal(err)
	}
	if exists(path) || l.Size() != 0 {
		t.Fatalf("after SealAs: open file exists: %v, Size %d", exists(path), l.Size())
	}
	var got [][]byte
	if st, err := Scan(sealed, testMagic, collect(&got)); err != nil || st.Discarded() != 0 || len(got) != 2 {
		t.Fatalf("sealed file replays %d records, %+v, %v", len(got), st, err)
	}
	if off, err := l.Append(frame(nil, []byte("three"))); err != nil || off != int64(len(testMagic)) {
		t.Fatalf("Append after SealAs at %d, %v", off, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// Reset empties file and buffer.
	if _, err := l.Append(frame(nil, []byte("buffered"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 || l.Size() != 0 {
		t.Fatalf("after Reset the file is %v bytes (%v), Size is %d", fi, err, l.Size())
	}

	// Abandon drops what was not written; Close writes it.
	if _, err := l.Append(frame(nil, []byte("kept"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(frame(nil, []byte("lost"))); err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	if _, err := l.Append(frame(nil, []byte("late"))); err == nil {
		t.Fatal("Append after Abandon succeeded")
	}
	got = nil
	l, st, err = Open(path, testMagic, collect(&got))
	if err != nil || len(got) != 1 || string(got[0]) != "kept" || st.Discarded() != 0 {
		t.Fatalf("after Abandon: %q, %+v, %v", got, st, err)
	}
	if _, err := l.Append(frame(nil, []byte("closed over"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := Scan(path, testMagic, collect(new([][]byte))); err != nil || st.Records != 2 {
		t.Fatalf("after Close: %+v, %v", st, err)
	}
}

// TestLogFailureIsSticky: after a failed write the file's state is
// unknown, so the log refuses appends and syncs until Reset has emptied
// it.
func TestLogFailureIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil, collect(new([][]byte)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(frame(nil, []byte("one"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Fail the next write: swap in a read-only handle of the same file.
	rw := l.f
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro
	if _, err := l.Append(frame(nil, []byte("two"))); err != nil {
		t.Fatal(err)
	}
	first := l.Sync()
	if first == nil {
		t.Fatal("Sync through a read-only handle succeeded")
	}
	ro.Close()
	l.f = rw
	if _, err := l.Append(frame(nil, []byte("three"))); !errors.Is(err, first) {
		t.Fatalf("Append after the failure = %v, want the first failure %v", err, first)
	}
	if err := l.Sync(); !errors.Is(err, first) {
		t.Fatalf("Sync after the failure = %v, want the first failure", err)
	}
	if err := l.SealAs(path + ".sealed"); !errors.Is(err, first) {
		t.Fatalf("SealAs after the failure = %v, want the first failure", err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(frame(nil, []byte("four"))); err != nil {
		t.Fatalf("Append after Reset = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if st, err := Scan(path, nil, collect(&got)); err != nil || len(got) != 1 || string(got[0]) != "four" {
		t.Fatalf("after Reset: %q, %+v, %v", got, st, err)
	}
}

// TestAppendBoundsItsBuffer: a caller that never syncs still has its
// frames written out once maxBuffered of them have piled up.
func TestAppendBoundsItsBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil, collect(new([][]byte)))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	rec := frame(nil, bytes.Repeat([]byte{9}, 64<<10))
	for written := 0; written < 2*maxBuffered; written += len(rec) {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if len(l.buf) >= maxBuffered {
			t.Fatalf("%d bytes buffered, bound is %d", len(l.buf), maxBuffered)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() < maxBuffered {
		t.Fatalf("nothing written through: %v, %v", fi, err)
	}
}

// FuzzLogOpen drives Open's crash-recovery invariants (checkOpen) from
// two directions: a log built from real appends and then mutated like a
// crash or bit rot would (truncated anywhere, one byte flipped), which
// must replay an in-order prefix of what was appended; and a file of
// entirely arbitrary bytes, which must never panic, over-count, or size
// an allocation from a length it claims. Either way the log must stay
// appendable. Both kinds of log run: with a magic (containers) and
// without (the kv WAL).
func FuzzLogOpen(f *testing.F) {
	f.Add([]byte(nil), uint8(3), uint16(0), uint16(0), false)
	f.Add([]byte(nil), uint8(5), uint16(40), uint16(0), false)
	f.Add([]byte(nil), uint8(0x85), uint16(0), uint16(33), true)
	f.Add([]byte(nil), uint8(0x80), uint16(9), uint16(9), true)
	f.Add([]byte("not a log at all"), uint8(0), uint16(0), uint16(0), false)
	f.Add(append(bytes.Clone(testMagic), "then garbage"...), uint8(0x80), uint16(0), uint16(0), false)
	// A header claiming a giant payload must not drive a giant allocation.
	f.Add([]byte{0x80, 0, 0, 0, 0xab, 0xad, 0x1d, 0xea, 1, 2, 3}, uint8(0), uint16(0), uint16(0), false)
	f.Add(frame(nil, []byte("one valid frame")), uint8(0), uint16(0), uint16(0), false)
	f.Fuzz(func(t *testing.T, raw []byte, plan uint8, cut, flip uint16, doFlip bool) {
		var magic []byte
		if plan&0x80 != 0 {
			magic = testMagic
		}
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if len(raw) > 0 {
			if len(magic) > 0 && !bytes.HasPrefix(magic, raw[:min(len(raw), len(magic))]) {
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, _, err := Open(path, magic, collect(new([][]byte))); !errors.Is(err, ErrMagic) {
					t.Fatalf("Open of a file of another kind = %v, want ErrMagic", err)
				}
				return
			}
			checkOpen(t, path, magic, raw, nil, -1)
			return
		}
		var payloads [][]byte
		for i := 0; i < int(plan&0x1F); i++ {
			payloads = append(payloads, []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'.'}, i*7))))
		}
		data, _ := buildLog(magic, payloads)
		data = data[:int(cut)%(len(data)+1)]
		if doFlip && len(data) > len(magic) {
			data[len(magic)+int(flip)%(len(data)-len(magic))] ^= 0x40
		}
		checkOpen(t, path, magic, data, payloads, -1)
	})
}
