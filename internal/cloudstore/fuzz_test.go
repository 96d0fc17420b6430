package cloudstore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"efdedup/internal/chunk"
)

// FuzzHandlers throws arbitrary request bodies at every cloud-store RPC
// handler: none may panic, regardless of input. The server holds one
// sealed container and one open container holding a chunk and manifest
// "m" over both chunks: a container request gets a protocol error, not
// found, or the container. Whatever a read asks, its reply is an error or
// decodes to at most readPageChunks IDs, and every payload in it hashes
// to one of them. A commit the server acks names only chunks it stores,
// and its name's recipe lists exactly the committed IDs.
func FuzzHandlers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Add(make([]byte, 40))
	id, data := mkPayload(1, 64)
	openID, openData := mkPayload(2, 48)
	valid := append(append([]byte{}, id[:]...), data...)
	f.Add(valid)
	size := map[uint64]int{ // container ID → its bytes; 1 is sealed, 2 open and ends in manifest m
		1: len(containerMagic) + containerRecordHeader + len(data),
		2: len(containerMagic) + containerRecordHeader + len(openData) + containerRecordHeader + 3 + len("m") + 2*chunk.IDSize,
	}
	for _, c := range []uint64{0, 1, 2, 3} {
		f.Add(encodeContainerRequest(c))
	}
	for _, req := range []struct {
		name  string
		first uint32
	}{{"m", 0}, {"m", 1}, {"m", 2}, {"m", 3}, {"unknown", 0}, {"m", 1 << 31}} {
		if body, err := encodeReadRequest(req.name, req.first); err == nil {
			f.Add(body)
			f.Add(body[:len(body)-1]) // truncated
		}
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
		if _, err := srv.containers.put([]chunk.Chunk{{ID: openID, Data: openData}}, "m", []chunk.ID{id, openID}); err != nil {
			t.Fatal(err)
		}
		container, _ := decodeContainerRequest(body)
		resp, err := srv.handleGetContainer(body)
		if len(resp) > size[container] || (err != nil && !errors.Is(err, ErrProto) && !errors.Is(err, ErrNotFound)) {
			t.Fatalf("getcontainer(%x) = %d bytes of a %d-byte container, %v", body, len(resp), size[container], err)
		}
		if resp, err := srv.handleRead(body); err == nil {
			p, derr := decodePage(resp)
			if derr != nil || len(p.ids) > readPageChunks {
				t.Fatalf("read(%x): %d IDs, %v", body, len(p.ids), derr)
			}
			for _, data := range p.payloads {
				if !slices.Contains(p.ids, chunk.Sum(data)) {
					t.Fatalf("read(%x): a payload hashes to none of the page's IDs", body)
				}
			}
		} else if !errors.Is(err, ErrProto) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("read(%x): %v", body, err)
		}
		handlers := []func([]byte) ([]byte, error){
			srv.handleBatchUpload,
			srv.handleBatchHas,
			srv.handleUploadRaw,
			srv.handleGetRecipe,
			srv.handleGetContainer,
			srv.handleRead,
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
	f.Add(encodeContainerRequest(1))
	if body, err := encodeReadRequest("name", 256); err == nil {
		f.Add(body)
	}
	f.Add(encodePage(pageReply{total: 2, manifest: Locator{Container: 1, Offset: 8}, containers: 1, ids: []chunk.ID{ck.ID, ck.ID}, payloads: [][]byte{ck.Data}}))
	f.Add(encodePage(pageReply{})) // an empty manifest's page
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
		name, first, err := decodeReadRequest(data)
		check("decodeReadRequest", err)
		if err == nil {
			if re, err := encodeReadRequest(name, first); err != nil || !bytes.Equal(re, data) {
				t.Fatalf("read request %x does not re-encode to itself: %v", data, err)
			}
		}
		p, err := decodePage(data)
		check("decodePage", err)
		if err == nil && !bytes.Equal(encodePage(p), data) {
			t.Fatalf("page %x does not re-encode to itself", data)
		}
		id, err := decodeContainerRequest(data)
		check("decodeContainerRequest", err)
		if err == nil && !bytes.Equal(encodeContainerRequest(id), data) {
			t.Fatalf("container request %x does not re-encode to itself", data)
		}
	})
}
