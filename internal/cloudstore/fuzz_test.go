package cloudstore

import (
	"bytes"
	"errors"
	"testing"

	"efdedup/internal/chunk"
)

// FuzzHandlers throws arbitrary request bodies at every cloud-store RPC
// handler: none may panic, regardless of input. The server holds one
// sealed container and one open container with one record, so that
// extent requests get past "not found" to the range checks: whatever
// they ask of either, the reply is a protocol error or no larger than
// the container. A commit the server acks names only chunks it stores,
// and its name's recipe lists exactly the committed IDs.
func FuzzHandlers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Add(make([]byte, 40))
	id, data := mkPayload(1, 64)
	openID, openData := mkPayload(2, 48)
	valid := append(append([]byte{}, id[:]...), data...)
	f.Add(valid)
	size := map[uint64]int{ // container ID → its bytes; 1 is sealed, 2 open
		1: len(containerMagic) + containerRecordHeader + len(data),
		2: len(containerMagic) + containerRecordHeader + len(openData),
	}
	for _, c := range []uint64{1, 2} {
		f.Add(encodeContainerRequest(c, nil))
		f.Add(encodeContainerRequest(c, []Extent{{Off: 8, Len: uint32(size[c] - 8)}}))
		f.Add(encodeContainerRequest(c, []Extent{{Off: 8, Len: 40}, {Off: 40, Len: 1 << 31}}))
	}
	tail := mkChunk("tail")
	for _, ids := range [][]chunk.ID{{id}, {id, tail.ID}, {tail.ID, chunk.Sum(nil)}} {
		if body, err := encodeCommit("f", []chunk.Chunk{tail}, ids); err == nil {
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := NewServer(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.containers.put([]chunk.Chunk{{ID: id, Data: data}}, "", nil); err != nil {
			t.Fatal(err)
		}
		srv.FlushContainers()
		if _, err := srv.containers.put([]chunk.Chunk{{ID: openID, Data: openData}}, "", nil); err != nil {
			t.Fatal(err)
		}
		container, _, _ := decodeContainerRequest(body)
		resp, err := srv.handleGetContainer(body)
		if len(resp) > size[container] || (err != nil && !errors.Is(err, ErrProto) && !errors.Is(err, ErrNotFound)) {
			t.Fatalf("getcontainer(%x) = %d bytes of a %d-byte container, %v", body, len(resp), size[container], err)
		}
		handlers := []func([]byte) ([]byte, error){
			srv.handleBatchUpload,
			srv.handleBatchHas,
			srv.handleUploadRaw,
			srv.handleGetRecipe,
			srv.handleGetContainer,
			srv.handleStats,
		}
		for _, h := range handlers {
			_, _ = h(body) // must not panic
		}
		if _, err := srv.handleCommit(body); err == nil {
			name, _, ids, _ := decodeCommit(body)
			for i, ok := range srv.containers.has(ids) {
				if ok == 0 {
					t.Fatalf("acked commit %q names unstored chunk %d", name, i)
				}
			}
			resp, err := srv.handleGetRecipe([]byte(name))
			recipe, derr := decodeRecipe(resp)
			if err != nil || derr != nil || len(recipe) != len(ids) {
				t.Fatalf("recipe of acked commit %q: %d entries for %d IDs, %v, %v", name, len(recipe), len(ids), err, derr)
			}
			for i, e := range recipe {
				if e.ID != ids[i] {
					t.Fatalf("recipe of acked commit %q: entry %d is %s, committed %s", name, i, e.ID, ids[i])
				}
			}
		}
	})
}

// FuzzCloudCodecs drives every cloud.* body decoder, and the manifest
// record decoder, with arbitrary bytes: each must either decode or
// return ErrProto — never panic, and never size an allocation from an
// unvalidated wire count.
func FuzzCloudCodecs(f *testing.F) {
	ck := chunk.Chunk{ID: chunk.Sum([]byte("seed")), Data: []byte("seed")}
	f.Add([]byte{})
	f.Add(encodeChunkList([]chunk.Chunk{ck}))
	f.Add(encodeIDList([]chunk.ID{ck.ID}))
	if blob, err := encodeNamedBlob("name", []byte("payload")); err == nil {
		f.Add(blob)
	}
	f.Add(encodeManifestIDs([]chunk.ID{ck.ID}))
	if body, err := encodeCommit("name", []chunk.Chunk{ck}, []chunk.ID{ck.ID, ck.ID}); err == nil {
		f.Add(body)
	}
	f.Add(encodeRecipe([]RecipeEntry{{ID: ck.ID, Loc: Locator{Container: 1, Offset: 2, Length: 3}}}))
	f.Add(encodeRecipe([]RecipeEntry{{ID: ck.ID}})) // a chunk the store lacks
	f.Add(encodeContainerRequest(1, []Extent{{Off: 8, Len: 40}, {Off: 48, Len: 1<<32 - 1}}))
	f.Add(encodeStats(Stats{UniqueChunks: 1}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})                  // hostile count prefix
	f.Add(encodeManifestPart("name", false, []chunk.ID{ck.ID, ck.ID})) // a one-part manifest
	f.Add(encodeManifestPart("name", true, []chunk.ID{ck.ID}))         // the first of two parts
	f.Add(encodeManifestPart("empty", false, nil))
	f.Add(encodeManifestPart(string(bytes.Repeat([]byte("n"), 65535)), false, []chunk.ID{ck.ID}))
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, ErrProto) {
				t.Fatalf("%s returned unclassified error: %v", what, err)
			}
		}
		_, err := decodeChunkList(data)
		check("decodeChunkList", err)
		_, err = decodeIDList(data)
		check("decodeIDList", err)
		_, _, err = decodeNamedBlob(data)
		check("decodeNamedBlob", err)
		_, err = decodeManifestIDs(data)
		check("decodeManifestIDs", err)
		name, tail, ids, err := decodeCommit(data)
		check("decodeCommit", err)
		if err == nil {
			if re, err := encodeCommit(name, tail, ids); err != nil || !bytes.Equal(re, data) {
				t.Fatalf("commit body %x does not re-encode to itself: %v", data, err)
			}
		}
		name, more, ids, err := decodeManifestPart(data)
		check("decodeManifestPart", err)
		if err == nil && !bytes.Equal(encodeManifestPart(name, more, ids), data) {
			t.Fatalf("manifest record %x does not re-encode to itself", data)
		}
		_, err = decodeRecipe(data)
		check("decodeRecipe", err)
		_, err = decodeStats(data)
		check("decodeStats", err)
		id, extents, err := decodeContainerRequest(data)
		check("decodeContainerRequest", err)
		if err == nil && !bytes.Equal(encodeContainerRequest(id, extents), data) {
			t.Fatalf("container request %x does not re-encode to itself", data)
		}
	})
}
