// Fixtures for the codecpair analyzer: encode/decode pairs sharing a
// name suffix must agree on the extracted wire layout.
package codecpair

import (
	"encoding/binary"
	"errors"
)

var errProto = errors.New("proto")

// --- positive: width mismatch on field 2 -----------------------------

func encodeRec(dst []byte, a uint32, b uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, a)
	dst = binary.BigEndian.AppendUint64(dst, b)
	return dst
}

func decodeRec(src []byte) (uint32, uint32, error) { // want `wire layout mismatch between encodeRec and decodeRec: field 2: encoder writes u64, decoder reads u32 \(encoder layout: u32 \| u64; decoder layout: u32 \| u32\)`
	if len(src) < 8 {
		return 0, 0, errProto
	}
	a := binary.BigEndian.Uint32(src)
	b := binary.BigEndian.Uint32(src[4:])
	return a, b, nil
}

// --- positive: encoder writes a field the decoder never reads --------

func encodePair(dst []byte, a, b uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, a)
	dst = binary.BigEndian.AppendUint32(dst, b)
	return dst
}

func decodePair(src []byte) (uint32, error) { // want `encoder writes 1 field\(s\) the decoder never reads`
	if len(src) < 4 {
		return 0, errProto
	}
	return binary.BigEndian.Uint32(src), nil
}

// --- positive: a shared helper pair under a whole-body pair ----------

// The suffix has two encoders and two decoders; each decoder is checked
// against the encoder of its own family.
func appendCounts(dst []byte, a uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, a)
}

func readCounts(src []byte) (uint64, []byte, error) { // want `wire layout mismatch between appendCounts and readCounts: field 1: encoder writes u32, decoder reads u64`
	if len(src) < 8 {
		return 0, nil, errProto
	}
	return binary.BigEndian.Uint64(src), src[8:], nil
}

func encodeCounts(a uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, a)
}

func decodeCounts(src []byte) (uint32, error) {
	if len(src) != 4 {
		return 0, errProto
	}
	return binary.BigEndian.Uint32(src), nil
}

// --- negatives -------------------------------------------------------

// A symmetric pair: length-prefixed bytes then a fixed word.
func encodeBlob(dst, blob []byte, n uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blob)))
	dst = append(dst, blob...)
	dst = binary.BigEndian.AppendUint64(dst, n)
	return dst
}

func decodeBlob(src []byte) ([]byte, uint64, error) {
	if len(src) < 4 {
		return nil, 0, errProto
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	if uint64(len(src)) < uint64(n)+8 {
		return nil, 0, errProto
	}
	blob := src[:n]
	v := binary.BigEndian.Uint64(src[n:])
	return blob, v, nil
}

// A decoder with no encode counterpart in the package: nothing to pair.
func decodeOrphan(src []byte) (uint32, error) {
	if len(src) < 4 {
		return 0, errProto
	}
	return binary.BigEndian.Uint32(src), nil
}

// An opaque suffix hides any number of fields: the shared prefix
// matches, so the pair stays silent.
func transform(b []byte) []byte { return b }

func encodeOpaque(dst []byte, a uint32, rest []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, a)
	dst = append(dst, transform(rest)...)
	return dst
}

func decodeOpaque(src []byte) (uint32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, errProto
	}
	a := binary.BigEndian.Uint32(src)
	rest := transform(src[4:])
	return a, rest, nil
}
