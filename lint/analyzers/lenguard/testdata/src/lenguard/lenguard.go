// Fixtures for the lenguard analyzer: a package with wire layouts reads
// request bodies through the codec package only.
package lenguard

import (
	"encoding/binary" // want `lenguard owns a wire layout: read and write fields with internal/codec, not encoding/binary`
	"errors"

	"codec"
	"transport"
)

var errProto = errors.New("proto")

var table = map[uint64]bool{}

func register(s *transport.Server) {
	s.Handle("len.naked", handleNaked)
	s.Handle("len.cursor", handleCursor)
	s.Handle("len.literal", func(body []byte) ([]byte, error) { return nil, nil })
}

// --- positives -------------------------------------------------------

// A handler that slices its body by hand.
func handleNaked(body []byte) ([]byte, error) {
	if len(body) < 8 {
		return nil, errProto
	}
	table[binary.BigEndian.Uint64(body[:8])] = true // want `handleNaked slices its body body by hand`
	return nil, nil
}

// A decoder that indexes its input.
func decodeFlag(src []byte) (bool, error) {
	if len(src) == 0 {
		return false, errProto
	}
	return src[0] == 1, nil // want `decodeFlag slices its body src by hand`
}

// --- negatives -------------------------------------------------------

// The cursor owns every length check.
func handleCursor(body []byte) ([]byte, error) {
	r := codec.NewReader(body, errProto)
	table[r.U64()] = true
	return nil, r.End()
}

func encodeItem(v uint64) []byte { return codec.U64(nil, v) }

// Slicing a buffer that is not a request body is fine.
func splitHalves(b []byte) ([]byte, []byte) { return b[:len(b)/2], b[len(b)/2:] }
