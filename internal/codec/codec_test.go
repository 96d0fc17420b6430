package codec

import (
	"bytes"
	"errors"
	"testing"
)

var errProto = errors.New("test: protocol error")

// TestRoundTrip reads back every field kind in the order it was appended,
// and the blobs alias the body.
func TestRoundTrip(t *testing.T) {
	var id [IDSize]byte
	id[0], id[31] = 1, 2
	b := U8(nil, 7)
	b = U16(b, 0xBEEF)
	b = U32(b, 0xDEADBEEF)
	b = U64(b, 1<<60+3)
	b = ID(b, id)
	b = Bytes8(b, "m")
	b = Bytes16(b, []byte("name"))
	b = Bytes32(b, []byte("payload"))
	b = U32(b, 2)
	b = append(b, "tail"...)

	r := NewReader(b, errProto)
	if r.U8() != 7 || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 1<<60+3 || r.ID() != id {
		t.Fatal("fixed-width fields did not round-trip")
	}
	if string(r.Bytes8()) != "m" || string(r.Bytes16()) != "name" {
		t.Fatal("short blobs did not round-trip")
	}
	p := r.Bytes32()
	if string(p) != "payload" || &p[0] != &b[len(b)-len("tail")-4-len("payload")] {
		t.Fatal("Bytes32 did not return an alias of the body")
	}
	if n := r.Count(2); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	if rest := r.Rest(); string(rest) != "tail" || r.Len() != 0 {
		t.Fatalf("Rest = %q", rest)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestShortReadsAreSticky: the first read that does not fit fails every
// later read and surfaces once, wrapping the caller's protocol error.
func TestShortReadsAreSticky(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 'a', 'b', 1, 2, 3, 4}, errProto)
	if b := r.Bytes32(); b != nil {
		t.Fatalf("9-byte blob from 6 bytes: %q", b)
	}
	if r.U8() != 0 || r.Len() != 0 {
		t.Fatal("reads after a short read still consumed input")
	}
	if err := r.Err(); !errors.Is(err, errProto) {
		t.Fatalf("Err = %v, want errProto", err)
	}
	for _, body := range [][]byte{nil, {1}, {1, 2, 3}, {1, 2, 3, 4, 5, 6, 7}} {
		r := NewReader(body, errProto)
		r.U64()
		if !errors.Is(r.Err(), errProto) {
			t.Fatalf("U64 of %d bytes did not fail", len(body))
		}
	}
	r = NewReader(bytes.Repeat([]byte{0xFF}, 4), errProto)
	if r.Bytes32() != nil || r.Err() == nil {
		t.Fatal("a 4 GiB length prefix passed the 64-bit check")
	}
}

// TestCountBoundsAllocation: a count the remaining bytes cannot hold is
// refused before the caller allocates.
func TestCountBoundsAllocation(t *testing.T) {
	body := U32(nil, 1<<31)
	body = append(body, make([]byte, 64)...)
	r := NewReader(body, errProto)
	if n := r.Count(IDSize); n != 0 || !errors.Is(r.Err(), errProto) {
		t.Fatalf("hostile count: n=%d err=%v", n, r.Err())
	}
	r = NewReader(append(U32(nil, 2), make([]byte, 2*IDSize)...), errProto)
	if n := r.Count(IDSize); n != 2 || r.Err() != nil {
		t.Fatalf("fitting count: n=%d err=%v", n, r.Err())
	}
	r = NewReader(U32(nil, 3), errProto)
	if n := r.Count(0); n != 0 || r.Err() == nil {
		t.Fatal("Count(0) did not treat elements as at least one byte")
	}
}

// TestEndRejectsTrailingBytes: End fails a body with bytes left unread,
// and Err alone does not.
func TestEndRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2}, errProto)
	r.U8()
	if r.Err() != nil {
		t.Fatal("Err failed a body with bytes left")
	}
	if err := r.End(); !errors.Is(err, errProto) {
		t.Fatalf("End = %v, want errProto", err)
	}
}
