// Fixtures for the codecpair analyzer: encode/decode pairs sharing a
// name suffix must agree on the wire layout their codec calls spell.
package codecpair

import (
	"errors"

	"codec"
)

var errProto = errors.New("proto")

// --- positive: width mismatch on field 2 -----------------------------

func encodeRec(dst []byte, a uint32, b uint64) []byte {
	dst = codec.U32(dst, a)
	dst = codec.U64(dst, b)
	return dst
}

func decodeRec(src []byte) (uint32, uint32, error) { // want `wire layout mismatch between encodeRec and decodeRec: field 2: encoder writes u64, decoder reads u32 \(encoder layout: u32 \| u64; decoder layout: u32 \| u32\)`
	r := codec.NewReader(src, errProto)
	return r.U32(), r.U32(), r.End()
}

// --- positive: encoder writes a field the decoder never reads --------

func encodePair(dst []byte, a, b uint32) []byte {
	dst = codec.U32(dst, a)
	dst = codec.U32(dst, b)
	return dst
}

func decodePair(src []byte) (uint32, error) { // want `encoder writes 1 field\(s\) the decoder never reads`
	r := codec.NewReader(src, errProto)
	return r.U32(), r.End()
}

// --- positive: a count the decoder does not bound ---------------------

func encodeIDs(ids [][32]byte) []byte {
	out := codec.U32(nil, uint32(len(ids)))
	for _, id := range ids {
		out = codec.ID(out, id)
	}
	return out
}

func decodeIDs(src []byte) ([][32]byte, error) { // want `field 1: encoder writes list32<array32>, decoder reads u32`
	r := codec.NewReader(src, errProto)
	ids := make([][32]byte, r.U32())
	for i := range ids {
		ids[i] = r.ID()
	}
	return ids, r.End()
}

// --- positive: a shared helper pair under a whole-body pair ----------

// The suffix has two encoders and two decoders; each decoder is checked
// against the encoder of its own family.
func appendCounts(dst []byte, a uint32) []byte {
	return codec.U32(dst, a)
}

func readCounts(r *codec.Reader) uint64 { // want `wire layout mismatch between appendCounts and readCounts: field 1: encoder writes u32, decoder reads u64`
	return r.U64()
}

func encodeCounts(a uint32) []byte {
	return appendCounts(nil, a)
}

func decodeCounts(src []byte) (uint32, error) {
	r := codec.NewReader(src, errProto)
	return r.U32(), r.End()
}

// --- negatives -------------------------------------------------------

// A symmetric pair: a counted list of blobs, then a fixed word, then a
// payload the decoder hands back.
func encodeBlob(dst []byte, blobs [][]byte, n uint64, tail []byte) []byte {
	dst = codec.U32(dst, uint32(len(blobs)))
	for _, b := range blobs {
		dst = codec.Bytes32(dst, b)
	}
	dst = codec.U64(dst, n)
	return append(dst, tail...)
}

func decodeBlob(src []byte) ([][]byte, uint64, []byte, error) {
	r := codec.NewReader(src, errProto)
	blobs := make([][]byte, r.Count(4))
	for i := range blobs {
		blobs[i] = r.Bytes32()
	}
	return blobs, r.U64(), r.Rest(), r.Err()
}

// A decoder with no encode counterpart in the package: nothing to pair.
func decodeOrphan(src []byte) (uint32, error) {
	r := codec.NewReader(src, errProto)
	return r.U32(), r.End()
}

// A read under a condition is a "?" that hides any number of fields:
// the shared prefix matches, so the pair stays silent.
func encodeOpaque(dst []byte, a uint32, more bool) []byte {
	dst = codec.U32(dst, a)
	if more {
		dst = codec.U64(dst, 1)
	}
	return dst
}

func decodeOpaque(src []byte) (uint32, error) {
	r := codec.NewReader(src, errProto)
	a := r.U32()
	return a, r.Err()
}
