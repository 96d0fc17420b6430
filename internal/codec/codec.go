// Package codec owns one decision for every byte format on the wire or
// in a record: how a body is bounds-checked. Encoders append big-endian
// fields with U8…U64, ID and Bytes8/16/32; decoders read them back in the
// same order through a Reader, so a format's layout is its sequence of
// codec calls, which is what the wire linter reads. The Reader keeps the
// decoder contract, so no decoder guards a length by hand:
//
//   - Input sizes are never trusted: every read checks the remaining
//     length in 64-bit arithmetic, and Count checks a count against the
//     remaining bytes before the caller allocates by it.
//   - A short read is sticky — later reads return zero values — and the
//     decoder checks Err (or End, which also refuses unread bytes) once;
//     the error wraps the caller's ErrProto (ErrCorrupt for records).
//   - Returned slices alias the input: callers copy what they retain.
//
// The reclog frame header stays in reclog (see reclog.Next).
package codec

import "encoding/binary"

// IDSize is the size of a content ID (a SHA-256 digest).
const IDSize = 32

// U8 appends v.
func U8(dst []byte, v uint8) []byte { return append(dst, v) }

// U16 appends v big-endian.
func U16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }

// U32 appends v big-endian.
func U32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

// U64 appends v big-endian.
func U64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// ID appends a content ID.
func ID(dst []byte, id [IDSize]byte) []byte { return append(dst, id[:]...) }

// Bytes8 appends s behind a u8 length; the caller keeps s under 256 bytes.
func Bytes8[S ~string | ~[]byte](dst []byte, s S) []byte { return append(U8(dst, uint8(len(s))), s...) }

// Bytes16 appends s behind a u16 length; the caller keeps s under 64 KiB.
func Bytes16[S ~string | ~[]byte](dst []byte, s S) []byte {
	return append(U16(dst, uint16(len(s))), s...)
}

// Bytes32 appends s behind a u32 length.
func Bytes32[S ~string | ~[]byte](dst []byte, s S) []byte {
	return append(U32(dst, uint32(len(s))), s...)
}

// Reader reads fields off the front of a body. Make one with NewReader.
type Reader struct {
	buf   []byte
	proto error
	short bool // a read did not fit, or End found bytes left
}

// NewReader returns a Reader over b whose errors wrap proto.
func NewReader(b []byte, proto error) Reader { return Reader{buf: b, proto: proto} }

// Len returns how many bytes are left unread.
func (r *Reader) Len() int { return len(r.buf) }

// Err returns an error wrapping the Reader's protocol error if a read did
// not fit, or nil.
func (r *Reader) Err() error {
	if r.short {
		return layoutError{r.proto}
	}
	return nil
}

// End is Err for a decoder that owns the whole body: bytes left unread do
// not fit the layout either.
func (r *Reader) End() error {
	if len(r.buf) != 0 {
		r.fail()
	}
	return r.Err()
}

// fail records a short read and empties the body, so later reads fail too.
func (r *Reader) fail() { r.short, r.buf = true, nil }

// take consumes the next n bytes, or returns nil if they are not there.
func (r *Reader) take(n uint64) []byte {
	if uint64(len(r.buf)) < n {
		r.fail()
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.buf) < 1 {
		r.fail()
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.buf) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.buf) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// ID reads a content ID.
func (r *Reader) ID() (id [IDSize]byte) {
	copy(id[:], r.take(IDSize))
	return id
}

// Bytes8 reads a u8-length-prefixed blob.
func (r *Reader) Bytes8() []byte { return r.take(uint64(r.U8())) }

// Bytes16 reads a u16-length-prefixed blob.
func (r *Reader) Bytes16() []byte { return r.take(uint64(r.U16())) }

// Bytes32 reads a u32-length-prefixed blob.
func (r *Reader) Bytes32() []byte { return r.take(uint64(r.U32())) }

// Rest consumes and returns every unread byte.
func (r *Reader) Rest() []byte {
	b := r.buf
	r.buf = r.buf[len(r.buf):]
	return b
}

// Count reads a u32 element count that the bytes left can hold, each
// element taking at least minElem (≥ 1) bytes, so the caller may size an
// allocation by it. A count the body cannot hold counts 0 and fails.
func (r *Reader) Count(minElem uint64) int {
	n := uint64(r.U32())
	if n > uint64(len(r.buf))/max(minElem, 1) {
		r.fail()
		return 0
	}
	return int(n)
}

// layoutError is a body that does not fit its layout.
type layoutError struct{ proto error }

func (e layoutError) Error() string { return e.proto.Error() + ": body does not fit its layout" }
func (e layoutError) Unwrap() error { return e.proto }
