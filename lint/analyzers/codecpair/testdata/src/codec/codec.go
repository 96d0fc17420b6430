// Package codec is a structural stub of internal/codec: the wire index
// recognizes the appenders and the Reader by package name, so fixtures
// can exercise the wire analyzers without the real module.
package codec

func U8(dst []byte, v uint8) []byte       { return append(dst, v) }
func U16(dst []byte, v uint16) []byte     { return dst }
func U32(dst []byte, v uint32) []byte     { return dst }
func U64(dst []byte, v uint64) []byte     { return dst }
func ID(dst []byte, id [32]byte) []byte   { return append(dst, id[:]...) }
func Bytes16(dst []byte, s string) []byte { return dst }
func Bytes32(dst []byte, s []byte) []byte { return append(dst, s...) }

type Reader struct{ buf []byte }

func NewReader(b []byte, proto error) Reader { return Reader{buf: b} }

func (r *Reader) Len() int             { return len(r.buf) }
func (r *Reader) Err() error           { return nil }
func (r *Reader) End() error           { return nil }
func (r *Reader) U8() uint8            { return 0 }
func (r *Reader) U16() uint16          { return 0 }
func (r *Reader) U32() uint32          { return 0 }
func (r *Reader) U64() uint64          { return 0 }
func (r *Reader) ID() (id [32]byte)    { return id }
func (r *Reader) Bytes16() []byte      { return nil }
func (r *Reader) Bytes32() []byte      { return nil }
func (r *Reader) Rest() []byte         { return r.buf }
func (r *Reader) Count(min uint64) int { return 0 }
