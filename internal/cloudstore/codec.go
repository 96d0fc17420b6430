package cloudstore

// Wire codecs for the cloud RPC surface and its manifest records. Every
// body format is a named encode/decode pair used by both the client and
// the server handlers, so the codecpair analyzer can check the two sides
// against each other and wire.lock pins the layouts. Decoders read
// through a codec.Reader, which owns the length checks (see the codec
// package doc): returned slices alias the body.

import (
	"cmp"
	"fmt"

	"efdedup/internal/chunk"
	"efdedup/internal/codec"
)

// chunkListSize is the encoded size of a chunk list.
func chunkListSize(chunks []chunk.Chunk) int {
	n := 4
	for _, ck := range chunks {
		n += chunk.IDSize + 4 + len(ck.Data)
	}
	return n
}

// appendChunkList appends a chunk list to dst:
// u32 count | (32-byte ID | u32 len | payload)*.
func appendChunkList(dst []byte, chunks []chunk.Chunk) []byte {
	dst = codec.U32(dst, uint32(len(chunks)))
	for _, ck := range chunks {
		dst = codec.ID(dst, ck.ID)
		dst = codec.Bytes32(dst, ck.Data)
	}
	return dst
}

// readChunkList reads a chunk list off r. Chunk payloads alias the body.
func readChunkList(r *codec.Reader) []chunk.Chunk {
	n := r.Count(chunk.IDSize + 4)
	out := make([]chunk.Chunk, 0, n)
	for range n {
		out = append(out, chunk.Chunk{ID: r.ID(), Data: r.Bytes32()})
	}
	return out
}

// encodeChunkList builds a batch upload body: a chunk list alone.
func encodeChunkList(chunks []chunk.Chunk) []byte {
	body := make([]byte, 0, chunkListSize(chunks))
	return appendChunkList(body, chunks)
}

// decodeChunkList parses a batch upload body.
func decodeChunkList(body []byte) ([]chunk.Chunk, error) {
	r := codec.NewReader(body, ErrProto)
	chunks := readChunkList(&r)
	return chunks, r.End()
}

// encodeCommit builds a commit body — a stream's name, its tail batch and
// its manifest — in one buffer sized up front, since the tail's payloads
// are most of it: u16 name length | name | chunk list | (32-byte ID)*.
func encodeCommit(name string, chunks []chunk.Chunk, ids []chunk.ID) ([]byte, error) {
	if len(name) > 65535 {
		return nil, fmt.Errorf("%w: name too long", ErrProto)
	}
	body := make([]byte, 0, 2+len(name)+chunkListSize(chunks)+len(ids)*chunk.IDSize)
	body = codec.Bytes16(body, name)
	body = appendChunkList(body, chunks)
	for _, id := range ids {
		body = codec.ID(body, id)
	}
	return body, nil
}

// decodeCommit parses a commit body. Chunk payloads alias the input.
func decodeCommit(body []byte) (name string, chunks []chunk.Chunk, ids []chunk.ID, err error) {
	r := codec.NewReader(body, ErrProto)
	name = string(r.Bytes16())
	chunks = readChunkList(&r)
	ids, err = decodeManifestIDs(r.Rest())
	if err = cmp.Or(r.Err(), err); err != nil {
		return "", nil, nil, fmt.Errorf("commit %q: %w", name, err)
	}
	return name, chunks, ids, nil
}

// encodeIDList builds a batchhas request: u32 count | (32-byte ID)*.
func encodeIDList(ids []chunk.ID) []byte {
	body := codec.U32(make([]byte, 0, 4+len(ids)*chunk.IDSize), uint32(len(ids)))
	for _, id := range ids {
		body = codec.ID(body, id)
	}
	return body
}

// decodeIDList parses an ID list; the body must hold exactly count IDs.
func decodeIDList(body []byte) ([]chunk.ID, error) {
	r := codec.NewReader(body, ErrProto)
	ids := make([]chunk.ID, r.Count(chunk.IDSize))
	for i := range ids {
		ids[i] = r.ID()
	}
	return ids, r.End()
}

// encodeNamedBlob builds an uploadraw body:
// u16 name length | name | payload.
func encodeNamedBlob(name string, payload []byte) ([]byte, error) {
	if len(name) > 65535 {
		return nil, fmt.Errorf("%w: name too long", ErrProto)
	}
	body := make([]byte, 0, 2+len(name)+len(payload))
	body = codec.Bytes16(body, name)
	body = append(body, payload...)
	return body, nil
}

// decodeNamedBlob splits a named-blob body into name and payload.
func decodeNamedBlob(body []byte) (string, []byte, error) {
	r := codec.NewReader(body, ErrProto)
	name, payload := r.Bytes16(), r.Rest()
	return string(name), payload, r.Err()
}

// encodeManifestPart builds the data of one manifest record, behind its
// zero tag: u16 name length | name | u8 more parts follow | (32-byte ID)*.
// Names reach the store in u16-length fields, so the length fits.
func encodeManifestPart(name string, more bool, ids []chunk.ID) []byte {
	flag := byte(0)
	if more {
		flag = 1
	}
	out := make([]byte, 0, 3+len(name)+len(ids)*chunk.IDSize)
	out = codec.Bytes16(out, name)
	out = codec.U8(out, flag)
	for _, id := range ids {
		out = codec.ID(out, id)
	}
	return out
}

// decodeManifestPart parses the data of one manifest record.
func decodeManifestPart(data []byte) (name string, more bool, ids []chunk.ID, err error) {
	r := codec.NewReader(data, ErrProto)
	n, flag := r.Bytes16(), r.U8()
	ids, err = decodeManifestIDs(r.Rest())
	if r.Err() != nil || flag > 1 {
		err = fmt.Errorf("%w: manifest part lacks its name or more-parts flag", ErrProto)
	}
	return string(n), flag == 1, ids, err
}

// decodeManifestIDs parses a bare 32-byte ID concatenation: the suffix
// of a commit body or of a manifest record.
func decodeManifestIDs(body []byte) ([]chunk.ID, error) {
	r := codec.NewReader(body, ErrProto)
	ids := make([]chunk.ID, 0, r.Len()/chunk.IDSize)
	for r.Len() > 0 {
		ids = append(ids, r.ID())
	}
	return ids, r.Err()
}

// encodeRecipe builds a getrecipe response: u32 count | per chunk:
// 32-byte ID | u64 container | u32 offset | u32 length.
func encodeRecipe(entries []RecipeEntry) []byte {
	out := make([]byte, 0, 4+len(entries)*(chunk.IDSize+16))
	out = codec.U32(out, uint32(len(entries)))
	for _, e := range entries {
		out = codec.ID(out, e.ID)
		out = codec.U64(out, e.Loc.Container)
		out = codec.U32(out, e.Loc.Offset)
		out = codec.U32(out, e.Loc.Length)
	}
	return out
}

// decodeRecipe parses a getrecipe response; the body must hold exactly
// count records.
func decodeRecipe(body []byte) ([]RecipeEntry, error) {
	r := codec.NewReader(body, ErrProto)
	out := make([]RecipeEntry, r.Count(chunk.IDSize+16))
	for i := range out {
		out[i] = RecipeEntry{ID: r.ID(), Loc: Locator{Container: r.U64(), Offset: r.U32(), Length: r.U32()}}
	}
	return out, r.End()
}

// encodeContainerRequest builds a getcontainer request: u64 container.
func encodeContainerRequest(id uint64) []byte { return codec.U64(make([]byte, 0, 8), id) }

// decodeContainerRequest parses a getcontainer request.
func decodeContainerRequest(body []byte) (uint64, error) {
	r := codec.NewReader(body, ErrProto)
	id := r.U64()
	return id, r.End()
}

// encodeReadRequest builds a read request: u16 name length | name |
// u32 first chunk.
func encodeReadRequest(name string, first uint32) ([]byte, error) {
	if len(name) > 65535 {
		return nil, fmt.Errorf("%w: name too long", ErrProto)
	}
	return codec.U32(codec.Bytes16(make([]byte, 0, 6+len(name)), name), first), nil
}

// decodeReadRequest parses a read request.
func decodeReadRequest(body []byte) (name string, first uint32, err error) {
	r := codec.NewReader(body, ErrProto)
	n := r.Bytes16()
	first = r.U32()
	return string(n), first, r.End()
}

// encodePage builds a read reply: u32 manifest chunks | u64 manifest
// container | u32 manifest offset | u32 containers read |
// u32 count | (32-byte ID)* | u32 count | (u32 len | payload)*.
func encodePage(p pageReply) []byte {
	n := 4 + 8 + 4 + 4 + 4 + len(p.ids)*chunk.IDSize + 4
	for _, data := range p.payloads {
		n += 4 + len(data)
	}
	out := codec.U32(make([]byte, 0, n), p.total)
	out = codec.U64(out, p.manifest.Container)
	out = codec.U32(out, p.manifest.Offset)
	out = codec.U32(out, p.containers)
	out = codec.U32(out, uint32(len(p.ids)))
	for _, id := range p.ids {
		out = codec.ID(out, id)
	}
	out = codec.U32(out, uint32(len(p.payloads)))
	for _, data := range p.payloads {
		out = codec.Bytes32(out, data)
	}
	return out
}

// decodePage parses a read reply. Payloads alias the body.
func decodePage(body []byte) (pageReply, error) {
	r := codec.NewReader(body, ErrProto)
	p := pageReply{total: r.U32(), manifest: Locator{Container: r.U64(), Offset: r.U32()}, containers: r.U32()}
	p.ids = make([]chunk.ID, r.Count(chunk.IDSize))
	for i := range p.ids {
		p.ids[i] = r.ID()
	}
	p.payloads = make([][]byte, r.Count(4))
	for i := range p.payloads {
		p.payloads[i] = r.Bytes32()
	}
	return p, r.End()
}

// encodeCount builds the reply of the storing RPCs (batchupload,
// uploadraw, commit): u32 chunks that were new.
func encodeCount(n int) []byte { return codec.U32(make([]byte, 0, 4), uint32(n)) }

// decodeCount parses a storing RPC's reply.
func decodeCount(body []byte) (int, error) {
	r := codec.NewReader(body, ErrProto)
	return int(r.U32()), r.End()
}

// encodeStats builds a stats response: seven u64 counters in the order
// decodeStats reads them back.
func encodeStats(st Stats) []byte {
	out := make([]byte, 0, 56)
	out = codec.U64(out, uint64(st.UniqueChunks))
	out = codec.U64(out, uint64(st.UniqueBytes))
	out = codec.U64(out, uint64(st.LogicalBytes))
	out = codec.U64(out, uint64(st.RawUploads))
	out = codec.U64(out, uint64(st.Manifests))
	out = codec.U64(out, uint64(st.ContainersSealed))
	out = codec.U64(out, uint64(st.DuplicatedBytes))
	return out
}

// decodeStats parses a stats response.
func decodeStats(body []byte) (Stats, error) {
	r := codec.NewReader(body, ErrProto)
	st := Stats{
		UniqueChunks:     int64(r.U64()),
		UniqueBytes:      int64(r.U64()),
		LogicalBytes:     int64(r.U64()),
		RawUploads:       int64(r.U64()),
		Manifests:        int64(r.U64()),
		ContainersSealed: int64(r.U64()),
		DuplicatedBytes:  int64(r.U64()),
	}
	return st, r.End()
}
