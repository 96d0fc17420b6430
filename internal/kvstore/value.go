// Package kvstore implements the distributed key-value store that holds
// each D2-ring's deduplication index — the role Cassandra plays in the
// EF-dedup prototype (paper Sec. IV).
//
// The store is composed of:
//
//   - Node: one storage replica (in-memory table, optional write-ahead
//     log) exposed over the transport RPC protocol;
//   - Cluster: a client-side coordinator that places keys with consistent
//     hashing and exposes the index as a batched set: BatchHas probes one
//     replica per key (falling back through the others), BatchPut
//     replicates to γ nodes at a configurable write consistency (ONE /
//     QUORUM / ALL), anti-entropy repair reconciles replicas, and
//     per-peer circuit breakers decide which replicas lookups route
//     around.
//
// Conflicts resolve by last-write-wins on the entry version.
// This matches the needs of a dedup index: values are tiny chunk-metadata
// records, false negatives only cost a redundant upload, and false
// positives cannot happen because chunk IDs are content hashes.
package kvstore

import (
	"errors"
	"slices"

	"efdedup/internal/codec"
)

// ErrProto marks malformed or truncated wire payloads: the peer sent
// bytes the protocol cannot decode, so the retry layer must not spend
// budget re-sending the same frame.
var ErrProto = errors.New("kvstore: protocol error")

// ErrConfig marks invalid cluster assembly, membership changes or call
// arguments: caller mistakes, never transient.
var ErrConfig = errors.New("kvstore: invalid configuration")

// ErrClosed marks operations against a closed WAL or node: callers raced
// a shutdown, never transient.
var ErrClosed = errors.New("kvstore: closed")

// ErrCorrupt marks durable state (snapshot files) that fails its CRC or
// framing checks. Unlike a torn WAL tail — an expected crash artifact
// that is silently truncated — snapshot corruption means real damage,
// and recovery surfaces it instead of serving a silently shrunken index.
var ErrCorrupt = errors.New("kvstore: corrupt durable state")

// Entry is one stored record.
type Entry struct {
	// Value is the payload.
	Value []byte
	// Version orders concurrent writes (last-write-wins). Coordinators
	// derive it from wall-clock nanoseconds plus a tie-breaking counter.
	Version uint64
}

// --- wire helpers -----------------------------------------------------

// readBlobs reads a count-prefixed list of u32-length-prefixed blobs.
func readBlobs(r *codec.Reader) [][]byte {
	n := r.Count(4)
	out := make([][]byte, 0, n)
	for range n {
		out = append(out, r.Bytes32())
	}
	return out
}

// keyedEntry is one key with its entry: an element of a kv.batchput
// body or kv.pull reply, a repair push.
type keyedEntry struct {
	key []byte
	e   Entry
}

// encodeEntry serializes key+entry for batchput bodies, pull replies and
// WAL/snapshot records.
func encodeEntry(dst []byte, key []byte, e Entry) []byte {
	dst = codec.Bytes32(dst, key)
	dst = codec.U64(dst, e.Version)
	dst = codec.Bytes32(dst, e.Value)
	return dst
}

// readEntry reads one encoded key+entry off r.
func readEntry(r *codec.Reader) (key []byte, e Entry) {
	key = r.Bytes32()
	e.Version = r.U64()
	e.Value = r.Bytes32()
	return key, e
}

// decodeEntry consumes one encoded key+entry.
func decodeEntry(src []byte) (key []byte, e Entry, rest []byte, err error) {
	r := codec.NewReader(src, ErrProto)
	key, e = readEntry(&r)
	return key, e, r.Rest(), r.Err()
}

// appendScan appends the count-prefixed entry sequence decodeScan reads:
// the body of kv.batchput and of a kv.pull reply.
func appendScan(dst []byte, ents []keyedEntry) []byte {
	size := 4
	for _, kv := range ents {
		size += 16 + len(kv.key) + len(kv.e.Value)
	}
	dst = slices.Grow(dst, size)
	dst = codec.U32(dst, uint32(len(ents)))
	for _, kv := range ents {
		dst = encodeEntry(dst, kv.key, kv.e)
	}
	return dst
}

// decodeScan parses a count-prefixed entry sequence.
func decodeScan(body []byte) ([]keyedEntry, error) {
	r := codec.NewReader(body, ErrProto)
	n := r.Count(16) // two length prefixes and a version
	out := make([]keyedEntry, 0, n)
	for range n {
		key, e := readEntry(&r)
		out = append(out, keyedEntry{key: key, e: e})
	}
	return out, r.Err()
}

// encodeKeyList serializes a count-prefixed list of keys.
func encodeKeyList(keys [][]byte) []byte {
	out := codec.U32(nil, uint32(len(keys)))
	for _, k := range keys {
		out = codec.Bytes32(out, k)
	}
	return out
}

// decodeKeyList parses a count-prefixed list of keys.
func decodeKeyList(src []byte) ([][]byte, error) {
	r := codec.NewReader(src, ErrProto)
	keys := readBlobs(&r)
	return keys, r.Err()
}
