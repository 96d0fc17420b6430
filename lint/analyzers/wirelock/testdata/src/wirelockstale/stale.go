// Fixture for the wirelock analyzer: the wire.lock beside this file is
// deliberately stale — it locks a method the code no longer has, an
// outdated layout for encodeItem, and misses encodeExtra entirely.
package wirelockstale // want `wire\.lock is stale: method stale\.gone \(pkg=wirelockstale\) is locked but no longer appears in the code` `wire\.lock is stale: layout encode wirelockstale\.encodeItem changed: lock has "u32", code has "u64"` `wire\.lock is stale: layout encode wirelockstale\.encodeExtra \("u32 \| u32"\) is new and not in wire\.lock`

import (
	"errors"

	"codec"
	"transport"
)

var errProto = errors.New("proto")

func register(s *transport.Server) {
	s.Handle("stale.get", func(b []byte) ([]byte, error) { return b, nil })
}

func invoke(c *transport.Client) {
	_, _ = c.Call("stale.get", nil)
}

func encodeItem(dst []byte, v uint64) []byte {
	return codec.U64(dst, v)
}

func decodeItem(src []byte) (uint64, error) {
	r := codec.NewReader(src, errProto)
	return r.U64(), r.End()
}

func encodeExtra(dst []byte, a, b uint32) []byte {
	dst = codec.U32(dst, a)
	dst = codec.U32(dst, b)
	return dst
}
