package cloudstore

// Wire codecs for the cloud RPC surface. Every body format is a named
// encode/decode pair used by both the client and the server handlers,
// so the codecpair analyzer can check the two sides against each other
// and wire.lock pins the layouts. Decoders never trust input sizes:
// counts are validated against the remaining bytes in 64-bit
// arithmetic before any allocation, truncation is an ErrProto, and
// returned slices alias the request body (callers copy if they retain).

import (
	"encoding/binary"
	"fmt"

	"efdedup/internal/chunk"
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
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(chunks)))
	for _, ck := range chunks {
		dst = append(dst, ck.ID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(ck.Data)))
		dst = append(dst, ck.Data...)
	}
	return dst
}

// readChunkList reads a chunk list off the front of body and returns the
// bytes after it. Chunk payloads alias the input.
func readChunkList(body []byte) ([]chunk.Chunk, []byte, error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated chunk list", ErrProto)
	}
	count := binary.BigEndian.Uint32(body)
	src := body[4:]
	// Each record costs at least a header; reject counts the payload
	// cannot hold before allocating count slots.
	if uint64(count) > uint64(len(src))/(chunk.IDSize+4) {
		return nil, nil, fmt.Errorf("%w: chunk count %d exceeds what %d bytes can hold", ErrProto, count, len(src))
	}
	out := make([]chunk.Chunk, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(src) < chunk.IDSize+4 {
			return nil, nil, fmt.Errorf("%w: truncated chunk record %d", ErrProto, i)
		}
		var ck chunk.Chunk
		copy(ck.ID[:], src[:chunk.IDSize])
		n := binary.BigEndian.Uint32(src[chunk.IDSize:])
		src = src[chunk.IDSize+4:]
		if uint64(len(src)) < uint64(n) {
			return nil, nil, fmt.Errorf("%w: chunk payload %d of %d bytes exceeds remaining %d", ErrProto, i, n, len(src))
		}
		ck.Data = src[:n]
		src = src[n:]
		out = append(out, ck)
	}
	return out, src, nil
}

// encodeChunkList builds a batch upload body: a chunk list alone.
func encodeChunkList(chunks []chunk.Chunk) []byte {
	body := make([]byte, 0, chunkListSize(chunks))
	return appendChunkList(body, chunks)
}

// decodeChunkList parses a batch upload body.
func decodeChunkList(body []byte) ([]chunk.Chunk, error) {
	chunks, rest, err := readChunkList(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d chunk records", ErrProto, len(rest), len(chunks))
	}
	return chunks, nil
}

// encodeCommit builds a commit body — a stream's name, its tail batch and
// its manifest — in one buffer sized up front, since the tail's payloads
// are most of it: u16 name length | name | chunk list | (32-byte ID)*.
func encodeCommit(name string, chunks []chunk.Chunk, ids []chunk.ID) ([]byte, error) {
	if len(name) > 65535 {
		return nil, fmt.Errorf("%w: name too long", ErrProto)
	}
	body := make([]byte, 0, 2+len(name)+chunkListSize(chunks)+len(ids)*chunk.IDSize)
	body = binary.BigEndian.AppendUint16(body, uint16(len(name)))
	body = append(body, name...)
	body = appendChunkList(body, chunks)
	for _, id := range ids {
		body = append(body, id[:]...)
	}
	return body, nil
}

// decodeCommit parses a commit body. Chunk payloads alias the input.
func decodeCommit(body []byte) (name string, chunks []chunk.Chunk, ids []chunk.ID, err error) {
	name, rest, err := decodeNamedBlob(body)
	if err != nil {
		return "", nil, nil, err
	}
	chunks, rest, err = readChunkList(rest)
	if err != nil {
		return "", nil, nil, fmt.Errorf("commit %q: %w", name, err)
	}
	ids, err = decodeManifestIDs(rest)
	if err != nil {
		return "", nil, nil, fmt.Errorf("commit %q: %w", name, err)
	}
	return name, chunks, ids, nil
}

// encodeIDList builds a batchhas request: u32 count | (32-byte ID)*.
func encodeIDList(ids []chunk.ID) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		body = append(body, id[:]...)
	}
	return body
}

// decodeIDList parses an ID list; the body must hold exactly count IDs.
func decodeIDList(body []byte) ([]chunk.ID, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: truncated ID list", ErrProto)
	}
	count := binary.BigEndian.Uint32(body)
	src := body[4:]
	// 64-bit math: count*IDSize overflows uint32 for hostile counts.
	if uint64(len(src)) != uint64(count)*chunk.IDSize {
		return nil, fmt.Errorf("%w: ID list of %d bytes does not hold %d IDs", ErrProto, len(src), count)
	}
	ids := make([]chunk.ID, count)
	for i := range ids {
		copy(ids[i][:], src[:chunk.IDSize])
		src = src[chunk.IDSize:]
	}
	return ids, nil
}

// encodeNamedBlob builds an uploadraw body:
// u16 name length | name | payload.
func encodeNamedBlob(name string, payload []byte) ([]byte, error) {
	if len(name) > 65535 {
		return nil, fmt.Errorf("%w: name too long", ErrProto)
	}
	body := binary.BigEndian.AppendUint16(nil, uint16(len(name)))
	body = append(body, name...)
	body = append(body, payload...)
	return body, nil
}

// decodeNamedBlob splits a named-blob body into name and payload.
func decodeNamedBlob(body []byte) (string, []byte, error) {
	if len(body) < 2 {
		return "", nil, fmt.Errorf("%w: truncated name header", ErrProto)
	}
	nameLen := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+nameLen {
		return "", nil, fmt.Errorf("%w: name of %d bytes exceeds body", ErrProto, nameLen)
	}
	return string(body[2 : 2+nameLen]), body[2+nameLen:], nil
}

// encodeManifestPart builds the data of one manifest record, behind its
// zero tag: u16 name length | name | u8 more parts follow | (32-byte ID)*.
// Names reach the store in u16-length fields, so the length fits.
func encodeManifestPart(name string, more bool, ids []chunk.ID) []byte {
	flag := byte(0)
	if more {
		flag = 1
	}
	out := binary.BigEndian.AppendUint16(nil, uint16(len(name)))
	out = append(append(out, name...), flag)
	return append(out, encodeManifestIDs(ids)...)
}

// decodeManifestPart parses the data of one manifest record.
func decodeManifestPart(data []byte) (name string, more bool, ids []chunk.ID, err error) {
	name, rest, err := decodeNamedBlob(data)
	if err != nil {
		return "", false, nil, err
	}
	if len(rest) == 0 || rest[0] > 1 {
		return "", false, nil, fmt.Errorf("%w: manifest %q part lacks its more-parts flag", ErrProto, name)
	}
	ids, err = decodeManifestIDs(rest[1:])
	return name, rest[0] == 1, ids, err
}

// encodeManifestIDs builds a bare 32-byte ID concatenation, as in the
// suffix of a commit body or of a manifest record.
func encodeManifestIDs(ids []chunk.ID) []byte {
	out := make([]byte, 0, len(ids)*chunk.IDSize)
	for _, id := range ids {
		out = append(out, id[:]...)
	}
	return out
}

// decodeManifestIDs parses an ID concatenation.
func decodeManifestIDs(body []byte) ([]chunk.ID, error) {
	if len(body)%chunk.IDSize != 0 {
		return nil, fmt.Errorf("%w: ID list of %d bytes misaligned", ErrProto, len(body))
	}
	ids := make([]chunk.ID, len(body)/chunk.IDSize)
	for i := range ids {
		copy(ids[i][:], body[i*chunk.IDSize:])
	}
	return ids, nil
}

// encodeRecipe builds a getrecipe response: u32 count | per chunk:
// 32-byte ID | u64 container | u32 offset | u32 length.
func encodeRecipe(entries []RecipeEntry) []byte {
	out := make([]byte, 0, 4+len(entries)*(chunk.IDSize+16))
	out = binary.BigEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = append(out, e.ID[:]...)
		out = binary.BigEndian.AppendUint64(out, e.Loc.Container)
		out = binary.BigEndian.AppendUint32(out, e.Loc.Offset)
		out = binary.BigEndian.AppendUint32(out, e.Loc.Length)
	}
	return out
}

// decodeRecipe parses a getrecipe response; the body must hold exactly
// count records.
func decodeRecipe(body []byte) ([]RecipeEntry, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: truncated recipe", ErrProto)
	}
	count := binary.BigEndian.Uint32(body)
	src := body[4:]
	const rec = chunk.IDSize + 16
	if uint64(len(src)) != uint64(count)*rec {
		return nil, fmt.Errorf("%w: recipe of %d bytes does not hold %d records", ErrProto, len(src), count)
	}
	out := make([]RecipeEntry, count)
	for i := range out {
		copy(out[i].ID[:], src[:chunk.IDSize])
		out[i].Loc.Container = binary.BigEndian.Uint64(src[chunk.IDSize:])
		out[i].Loc.Offset = binary.BigEndian.Uint32(src[chunk.IDSize+8:])
		out[i].Loc.Length = binary.BigEndian.Uint32(src[chunk.IDSize+12:])
		src = src[rec:]
	}
	return out, nil
}

// encodeContainerRequest builds a getcontainer request:
// u64 container | (u32 off | u32 len)*. No extents asks for the whole
// container.
func encodeContainerRequest(id uint64, extents []Extent) []byte {
	body := make([]byte, 0, 8+8*len(extents))
	body = binary.BigEndian.AppendUint64(body, id)
	for _, e := range extents {
		body = binary.BigEndian.AppendUint32(body, e.Off)
		body = binary.BigEndian.AppendUint32(body, e.Len)
	}
	return body
}

// decodeContainerRequest parses a getcontainer request. It checks the
// framing only; the store checks the extents against the container.
func decodeContainerRequest(body []byte) (uint64, []Extent, error) {
	if len(body) < 8 || (len(body)-8)%8 != 0 {
		return 0, nil, fmt.Errorf("%w: container request of %d bytes", ErrProto, len(body))
	}
	id := binary.BigEndian.Uint64(body)
	src := body[8:]
	extents := make([]Extent, len(src)/8)
	for i := range extents {
		extents[i].Off = binary.BigEndian.Uint32(src)
		extents[i].Len = binary.BigEndian.Uint32(src[4:])
		src = src[8:]
	}
	return id, extents, nil
}

// encodeStats builds a stats response: seven u64 counters in the order
// decodeStats reads them back.
func encodeStats(st Stats) []byte {
	out := make([]byte, 0, 56)
	out = binary.BigEndian.AppendUint64(out, uint64(st.UniqueChunks))
	out = binary.BigEndian.AppendUint64(out, uint64(st.UniqueBytes))
	out = binary.BigEndian.AppendUint64(out, uint64(st.LogicalBytes))
	out = binary.BigEndian.AppendUint64(out, uint64(st.RawUploads))
	out = binary.BigEndian.AppendUint64(out, uint64(st.Manifests))
	out = binary.BigEndian.AppendUint64(out, uint64(st.ContainersSealed))
	out = binary.BigEndian.AppendUint64(out, uint64(st.DuplicatedBytes))
	return out
}

// decodeStats parses a stats response.
func decodeStats(body []byte) (Stats, error) {
	if len(body) != 56 {
		return Stats{}, fmt.Errorf("%w: stats payload of %d bytes, want 56", ErrProto, len(body))
	}
	return Stats{
		UniqueChunks:     int64(binary.BigEndian.Uint64(body[0:])),
		UniqueBytes:      int64(binary.BigEndian.Uint64(body[8:])),
		LogicalBytes:     int64(binary.BigEndian.Uint64(body[16:])),
		RawUploads:       int64(binary.BigEndian.Uint64(body[24:])),
		Manifests:        int64(binary.BigEndian.Uint64(body[32:])),
		ContainersSealed: int64(binary.BigEndian.Uint64(body[40:])),
		DuplicatedBytes:  int64(binary.BigEndian.Uint64(body[48:])),
	}, nil
}
