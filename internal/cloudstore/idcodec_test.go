package cloudstore

import (
	"efdedup/internal/chunk"
	"efdedup/internal/codec"
)

// encodeManifestIDs builds the bare ID concatenation decodeManifestIDs
// parses, for the codec tests and fuzz seeds.
func encodeManifestIDs(ids []chunk.ID) []byte {
	out := make([]byte, 0, len(ids)*chunk.IDSize)
	for _, id := range ids {
		out = codec.ID(out, id)
	}
	return out
}
