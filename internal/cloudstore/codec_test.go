package cloudstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"efdedup/internal/chunk"
)

func codecChunk(data string) chunk.Chunk {
	return chunk.Chunk{ID: chunk.Sum([]byte(data)), Data: []byte(data)}
}

func TestChunkListRoundTrip(t *testing.T) {
	in := []chunk.Chunk{codecChunk("a"), codecChunk("bb"), {ID: chunk.Sum(nil)}}
	out, err := decodeChunkList(encodeChunkList(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d chunks, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("chunk %d mutated", i)
		}
	}
}

// TestChunkListHostile pins the count/length validation: counts the
// payload cannot hold are rejected before allocation, payload lengths
// are compared in 64-bit arithmetic, and trailing bytes are an error.
func TestChunkListHostile(t *testing.T) {
	valid := encodeChunkList([]chunk.Chunk{codecChunk("x")})

	overflow := binary.BigEndian.AppendUint32(nil, 1)
	overflow = append(overflow, make([]byte, chunk.IDSize)...)
	overflow = binary.BigEndian.AppendUint32(overflow, 1<<32-8) // wraps IDSize+4+n in 32-bit
	overflow = append(overflow, make([]byte, 8)...)

	cases := map[string][]byte{
		"empty":           nil,
		"count too large": binary.BigEndian.AppendUint32(nil, 1<<30),
		"truncated":       valid[:len(valid)-1],
		"overflow length": overflow,
		"trailing":        append(append([]byte{}, valid...), 1),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeChunkList(payload); !errors.Is(err, ErrProto) {
				t.Fatalf("hostile chunk list not rejected with ErrProto: %v", err)
			}
		})
	}
}

func TestCommitRoundTrip(t *testing.T) {
	tail := []chunk.Chunk{codecChunk("t1"), codecChunk("t22")}
	ids := []chunk.ID{tail[0].ID, chunk.Sum([]byte("old")), tail[1].ID}
	for _, c := range []struct {
		tail []chunk.Chunk
		ids  []chunk.ID
	}{{tail, ids}, {nil, ids}, {nil, nil}} {
		body, err := encodeCommit("backup/1", c.tail, c.ids)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if want := 2 + len("backup/1") + chunkListSize(c.tail) + len(c.ids)*chunk.IDSize; len(body) != want || cap(body) != want {
			t.Fatalf("body is %d bytes in a %d-byte buffer, want one %d-byte buffer", len(body), cap(body), want)
		}
		name, gotTail, gotIDs, err := decodeCommit(body)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if name != "backup/1" || len(gotTail) != len(c.tail) || len(gotIDs) != len(c.ids) {
			t.Fatalf("round trip gave %q, %d chunks, %d IDs", name, len(gotTail), len(gotIDs))
		}
		for i := range c.tail {
			if gotTail[i].ID != c.tail[i].ID || !bytes.Equal(gotTail[i].Data, c.tail[i].Data) {
				t.Fatalf("tail chunk %d mutated", i)
			}
		}
		for i := range c.ids {
			if gotIDs[i] != c.ids[i] {
				t.Fatalf("manifest ID %d mutated", i)
			}
		}
	}
	if _, err := encodeCommit(string(make([]byte, 70000)), nil, nil); !errors.Is(err, ErrProto) {
		t.Fatalf("oversized name not rejected: %v", err)
	}
}

// TestCommitHostile feeds commit bodies a client could not have built:
// every one is an ErrProto, from the decoder and from the handler.
func TestCommitHostile(t *testing.T) {
	head := binary.BigEndian.AppendUint16(nil, 1)
	head = append(head, 'f')
	list := appendChunkList(nil, []chunk.Chunk{codecChunk("x")})
	id := chunk.Sum([]byte("x"))
	cases := map[string][]byte{
		"no chunk list":         head,
		"truncated list":        append(append([]byte{}, head...), list[:len(list)-1]...),
		"count exceeds body":    binary.BigEndian.AppendUint32(append([]byte{}, head...), 1<<20),
		"misaligned ID suffix":  append(append(append([]byte{}, head...), list...), id[:chunk.IDSize-1]...),
		"name longer than body": {0xFF, 0xFF, 'x'},
	}
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, _, err := decodeCommit(body); !errors.Is(err, ErrProto) {
				t.Fatalf("decodeCommit: %v, want ErrProto", err)
			}
			if _, err := srv.handleCommit(body); !errors.Is(err, ErrProto) {
				t.Fatalf("handleCommit: %v, want ErrProto", err)
			}
		})
	}
	if st := srv.Stats(); st.UniqueChunks != 0 || st.Manifests != 0 {
		t.Fatalf("hostile commits stored something: %+v", st)
	}
}

func TestIDListRoundTrip(t *testing.T) {
	in := []chunk.ID{chunk.Sum([]byte("1")), chunk.Sum([]byte("2"))}
	out, err := decodeIDList(encodeIDList(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatal("round trip mutated the IDs")
	}
	// A count of 2^27 would ask for 2^32 bytes: the exact-length check in
	// 64-bit arithmetic must reject it rather than wrap.
	huge := binary.BigEndian.AppendUint32(nil, 1<<27)
	if _, err := decodeIDList(huge); !errors.Is(err, ErrProto) {
		t.Fatalf("hostile count not rejected: %v", err)
	}
	if _, err := decodeIDList(encodeIDList(in)[:10]); !errors.Is(err, ErrProto) {
		t.Fatalf("truncated list not rejected: %v", err)
	}
}

func TestNamedBlobRoundTrip(t *testing.T) {
	body, err := encodeNamedBlob("backup/2026-08.img", []byte("payload"))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	name, payload, err := decodeNamedBlob(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if name != "backup/2026-08.img" || string(payload) != "payload" {
		t.Fatalf("round trip gave %q / %q", name, payload)
	}
	if _, err := encodeNamedBlob(string(make([]byte, 70000)), nil); !errors.Is(err, ErrProto) {
		t.Fatalf("oversized name not rejected: %v", err)
	}
	if _, _, err := decodeNamedBlob([]byte{0}); !errors.Is(err, ErrProto) {
		t.Fatalf("short header not rejected: %v", err)
	}
	if _, _, err := decodeNamedBlob([]byte{0xFF, 0xFF, 'x'}); !errors.Is(err, ErrProto) {
		t.Fatalf("truncated name not rejected: %v", err)
	}
}

func TestManifestIDsRoundTrip(t *testing.T) {
	in := []chunk.ID{chunk.Sum([]byte("m1")), chunk.Sum([]byte("m2")), chunk.Sum([]byte("m3"))}
	out, err := decodeManifestIDs(encodeManifestIDs(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 3 || out[0] != in[0] || out[2] != in[2] {
		t.Fatal("round trip mutated the IDs")
	}
	if _, err := decodeManifestIDs(make([]byte, chunk.IDSize+1)); !errors.Is(err, ErrProto) {
		t.Fatalf("misaligned list not rejected: %v", err)
	}
}

func TestRecipeRoundTrip(t *testing.T) {
	in := []RecipeEntry{
		{ID: chunk.Sum([]byte("r1")), Loc: Locator{Container: 3, Offset: 128, Length: 512}},
		{ID: chunk.Sum([]byte("r2"))}, // zero locator = fallback
	}
	out, err := decodeRecipe(encodeRecipe(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mutated the recipe: %v", out)
	}
	huge := binary.BigEndian.AppendUint32(nil, 1<<27) // 2^27 * 48 bytes claimed
	if _, err := decodeRecipe(huge); !errors.Is(err, ErrProto) {
		t.Fatalf("hostile count not rejected: %v", err)
	}
	if _, err := decodeRecipe(encodeRecipe(in)[:20]); !errors.Is(err, ErrProto) {
		t.Fatalf("truncated recipe not rejected: %v", err)
	}
}

// TestContainerRequestRoundTrip pins the getcontainer request: the
// 8-byte container ID, and nothing else.
func TestContainerRequestRoundTrip(t *testing.T) {
	body := encodeContainerRequest(7)
	if id, err := decodeContainerRequest(body); err != nil || id != 7 || !bytes.Equal(body, binary.BigEndian.AppendUint64(nil, 7)) {
		t.Fatalf("round trip of container 7: %x = %d, %v", body, id, err)
	}
	for _, n := range []int{0, 7, 9, 12, 16, 20} {
		if _, err := decodeContainerRequest(make([]byte, n)); !errors.Is(err, ErrProto) {
			t.Fatalf("%d-byte request: err = %v, want ErrProto", n, err)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := Stats{
		UniqueChunks: 1, UniqueBytes: 2, LogicalBytes: 3, RawUploads: 4,
		Manifests: 5, ContainersSealed: 6, DuplicatedBytes: 7,
	}
	out, err := decodeStats(encodeStats(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mutated stats: %+v", out)
	}
	if _, err := decodeStats(make([]byte, 55)); !errors.Is(err, ErrProto) {
		t.Fatalf("short stats not rejected: %v", err)
	}
}
