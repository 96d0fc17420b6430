// Fixture for the wirelock analyzer: the wire.lock beside this file
// matches the code exactly, so the analyzer stays silent.
package wirelockclean

import (
	"errors"

	"codec"
	"transport"
)

var errProto = errors.New("proto")

func register(s *transport.Server) {
	s.Handle("clean.put", func(b []byte) ([]byte, error) { return b, nil })
}

func invoke(c *transport.Client) {
	_, _ = c.Call("clean.put", nil)
}

func encodeItem(dst []byte, v uint64) []byte {
	return codec.U64(dst, v)
}

func decodeItem(src []byte) (uint64, error) {
	r := codec.NewReader(src, errProto)
	return r.U64(), r.End()
}
