package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"efdedup/internal/reclog"
)

// FuzzDecodeEntry: garbage must never panic; valid decodes must round
// trip.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(encodeEntry(nil, []byte("key"), Entry{Value: []byte("val"), Version: 9}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 200}) // length prefix beyond payload
	f.Fuzz(func(t *testing.T, data []byte) {
		key, e, rest, err := decodeEntry(data)
		if err != nil {
			return
		}
		re := encodeEntry(nil, key, e)
		k2, e2, rest2, err := decodeEntry(re)
		if err != nil || !bytes.Equal(k2, key) || e2.Version != e.Version || !bytes.Equal(e2.Value, e.Value) {
			t.Fatalf("decode/encode not idempotent")
		}
		if len(rest2) != 0 {
			t.Fatalf("re-encoded entry left %d trailing bytes", len(rest2))
		}
		_ = rest
	})
}

// FuzzDecodeKeyList: panic-free and round-trip consistent.
func FuzzDecodeKeyList(f *testing.F) {
	f.Add(encodeKeyList([][]byte{[]byte("a"), []byte("bb")}))
	f.Add([]byte{0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := decodeKeyList(data)
		if err != nil {
			return
		}
		re := encodeKeyList(keys)
		keys2, err := decodeKeyList(re)
		if err != nil || len(keys2) != len(keys) {
			t.Fatalf("round trip failed")
		}
		for i := range keys {
			if !bytes.Equal(keys[i], keys2[i]) {
				t.Fatalf("key %d corrupted", i)
			}
		}
	})
}

// FuzzWALReplay checks the log's crash-recovery invariants through the
// WAL's own surface (OpenWALOptions, Append, replayInto). The replay loop
// is reclog's and is fuzzed there (FuzzLogOpen, which `make fuzz-short`
// runs); this target and FuzzWALReplayRawBytes stay as seed-corpus
// regression tests that the kv adapter — decode every payload as exactly
// one entry — keeps them:
//
//  1. Replay of arbitrary bytes never panics and never reports a valid
//     prefix longer than the file.
//  2. For a log built from real appends and then mutated like a crash or
//     bit rot would (truncated at any point, or one byte flipped), replay
//     yields a strict prefix of the appended records, in order.
//  3. A node reopening the mutated log can append, and the next replay
//     sees the surviving prefix plus the new record.
//
// The fuzz input doubles as both the append plan and the mutation choice:
// nRecords picks how many records to write, cut where to truncate, flip
// which byte to corrupt (when in range).
func FuzzWALReplay(f *testing.F) {
	f.Add(uint8(3), uint16(0), uint16(0), false)
	f.Add(uint8(5), uint16(40), uint16(0), false)
	f.Add(uint8(5), uint16(0), uint16(33), true)
	f.Add(uint8(0), uint16(9), uint16(9), true)
	f.Fuzz(func(t *testing.T, nRecords uint8, cut, flip uint16, doFlip bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		w, err := OpenWALOptions(WALOptions{Path: path, Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		n := int(nRecords % 32)
		for i := 0; i < n; i++ {
			e := Entry{Value: []byte(fmt.Sprintf("value-%d", i)), Version: uint64(i + 1)}
			if err := w.Append([]byte(fmt.Sprintf("key-%d", i)), e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		// Mutate the log the way crashes and bit rot do. (A log nothing was
		// appended to has no file yet.)
		data, err := os.ReadFile(path)
		if err != nil && (n > 0 || !os.IsNotExist(err)) {
			t.Fatal(err)
		}
		if len(data) > 0 {
			data = data[:int(cut)%(len(data)+1)]
		}
		if doFlip && len(data) > 0 {
			data[int(flip)%len(data)] ^= 0x40
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Invariant: replay is an in-order prefix of what was appended.
		replayed := 0
		stats, err := reclog.Scan(path, nil, replayInto(func(key []byte, e Entry) {
			wantKey := fmt.Sprintf("key-%d", replayed)
			if string(key) != wantKey || e.Version != uint64(replayed+1) {
				t.Fatalf("record %d replayed as %q@%d, want %q@%d", replayed, key, e.Version, wantKey, replayed+1)
			}
			replayed++
		}))
		if err != nil {
			t.Fatal(err)
		}
		if replayed > n || stats.Records != replayed {
			t.Fatalf("replayed %d records (stats %d) from %d appends", replayed, stats.Records, n)
		}
		if stats.Bytes+stats.Discarded() != int64(len(data)) {
			t.Fatalf("prefix %d + discarded %d != file size %d", stats.Bytes, stats.Discarded(), len(data))
		}

		// Invariant: the log stays appendable after any mutation, and the
		// new record replays right after the surviving prefix.
		w2, err := OpenWALOptions(WALOptions{Path: path, Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Append([]byte("post-crash"), Entry{Value: []byte("pc"), Version: 1 << 40}); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		count := 0
		last := ""
		stats2, err := reclog.Scan(path, nil, replayInto(func(key []byte, e Entry) {
			count++
			last = string(key)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if count != replayed+1 || last != "post-crash" {
			t.Fatalf("post-crash replay saw %d records ending %q, want %d ending post-crash", count, last, replayed+1)
		}
		if stats2.Discarded() != 0 {
			t.Fatalf("reopen left unreplayable bytes: %+v", stats2)
		}
	})
}

// FuzzWALReplayRawBytes: scanning a file of entirely arbitrary bytes must
// never panic, never over-count, and never allocate past the record cap.
func FuzzWALReplayRawBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a wal at all"))
	// A record header claiming a giant payload must not drive a giant
	// allocation.
	huge := binary.BigEndian.AppendUint32(nil, 1<<31)
	huge = binary.BigEndian.AppendUint32(huge, 0xabad1dea)
	f.Add(append(huge, 1, 2, 3))
	valid := encodeEntry(nil, []byte("k"), Entry{Value: []byte("v"), Version: 1})
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(valid)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(valid))
	f.Add(append(rec, valid...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "raw.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stats, err := reclog.Scan(path, nil, replayInto(func([]byte, Entry) {}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bytes+stats.Discarded() != int64(len(data)) {
			t.Fatalf("prefix %d + discarded %d != file size %d", stats.Bytes, stats.Discarded(), len(data))
		}
	})
}

// protoOrNil fails the fuzz run when a decoder returns an error outside
// the protocol-error taxonomy: hostile bytes must map to ErrProto (or
// ErrCorrupt), never to a panic or an unclassified error.
func protoOrNil(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrProto) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s returned unclassified error: %v", what, err)
	}
}

// FuzzKVCodecs drives every kv.* body decoder with one arbitrary input:
// each must either decode or return ErrProto — never panic, never size
// an allocation from an unvalidated wire count.
func FuzzKVCodecs(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeEntry(nil, []byte("key"), Entry{Version: 3, Value: []byte("value")}))
	f.Add(encodeKeyList([][]byte{[]byte("a"), []byte("b")}))
	f.Add(appendScan(nil, []keyedEntry{{key: []byte("k"), e: Entry{Version: 1, Value: []byte("v")}}}))
	f.Add(encodeStats(NodeStats{Gets: 1, Puts: 2, Hits: 3, Misses: 4, Entries: 5}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // hostile length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := readBytes(data)
		protoOrNil(t, "readBytes", err)
		_, _, _, err = decodeEntry(data)
		protoOrNil(t, "decodeEntry", err)
		_, err = decodeKeyList(data)
		protoOrNil(t, "decodeKeyList", err)
		_, err = decodeScan(data)
		protoOrNil(t, "decodeScan", err)
		_, err = decodeStats(data)
		protoOrNil(t, "decodeStats", err)
	})
}

// FuzzRepairCodecs drives the anti-entropy (kv.digest / kv.pull) body
// decoders with arbitrary bytes.
func FuzzRepairCodecs(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeDigestReq(3, 64, []string{"a:1", "b:1"}, []string{"a:1"}))
	var want bucketSet
	want.add(7)
	want.add(200)
	f.Add(encodePullReq(3, 64, []string{"a:1"}, []string{"a:1"}, want))
	f.Add(encodeDigestResp([digestBuckets]bucketDigest{}))
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 4, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile member count
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := decodeDigestReq(data)
		protoOrNil(t, "decodeDigestReq", err)
		_, _, err = readBytesList(data)
		protoOrNil(t, "readBytesList", err)
		_, err = decodeDigestResp(data)
		protoOrNil(t, "decodeDigestResp", err)
		_, _, err = decodePullReq(data)
		protoOrNil(t, "decodePullReq", err)
	})
}

// FuzzDecodeScan: the entry-sequence parser (kv.batchput body, kv.pull
// reply) must be panic-free.
func FuzzDecodeScan(f *testing.F) {
	payload := encodeEntry(nil, []byte("k"), Entry{Value: []byte("v"), Version: 1})
	valid := append([]byte{0, 0, 0, 1}, payload...)
	f.Add(valid)
	f.Add([]byte{0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeScan(data)
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.key == nil && len(e.e.Value) > 0 {
				t.Fatal("entry with nil key but payload")
			}
		}
	})
}
