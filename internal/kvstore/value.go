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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// appendBytes appends a u32 length prefix plus the data.
func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// readBytes consumes one length-prefixed blob.
func readBytes(src []byte) (val, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated length prefix", ErrProto)
	}
	n := binary.BigEndian.Uint32(src)
	if uint64(len(src)-4) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: blob of %d bytes exceeds remaining %d", ErrProto, n, len(src)-4)
	}
	return src[4 : 4+n], src[4+n:], nil
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
	dst = appendBytes(dst, key)
	dst = binary.BigEndian.AppendUint64(dst, e.Version)
	dst = appendBytes(dst, e.Value)
	return dst
}

// decodeEntry consumes one encoded key+entry.
func decodeEntry(src []byte) (key []byte, e Entry, rest []byte, err error) {
	key, src, err = readBytes(src)
	if err != nil {
		return nil, Entry{}, nil, err
	}
	if len(src) < 8 {
		return nil, Entry{}, nil, fmt.Errorf("%w: truncated version", ErrProto)
	}
	e.Version = binary.BigEndian.Uint64(src)
	e.Value, rest, err = readBytes(src[8:])
	if err != nil {
		return nil, Entry{}, nil, err
	}
	return key, e, rest, nil
}

// appendScan appends the count-prefixed entry sequence decodeScan reads:
// the body of kv.batchput and of a kv.pull reply.
func appendScan(dst []byte, ents []keyedEntry) []byte {
	size := 4
	for _, kv := range ents {
		size += 16 + len(kv.key) + len(kv.e.Value)
	}
	dst = slices.Grow(dst, size)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ents)))
	for _, kv := range ents {
		dst = encodeEntry(dst, kv.key, kv.e)
	}
	return dst
}

// decodeScan parses a count-prefixed entry sequence.
func decodeScan(body []byte) ([]keyedEntry, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: truncated entry sequence", ErrProto)
	}
	count := int(binary.BigEndian.Uint32(body))
	src := body[4:]
	// Each record costs at least 16 bytes (two length prefixes + version);
	// reject counts the payload cannot hold before allocating.
	if count > len(src)/16+1 {
		return nil, fmt.Errorf("%w: entry count %d exceeds payload", ErrProto, count)
	}
	out := make([]keyedEntry, 0, count)
	for i := 0; i < count; i++ {
		key, e, rest, err := decodeEntry(src)
		if err != nil {
			return nil, fmt.Errorf("kvstore: entry %d: %w", i, err)
		}
		out = append(out, keyedEntry{key: key, e: e})
		src = rest
	}
	return out, nil
}

// encodeKeyList serializes a count-prefixed list of keys.
func encodeKeyList(keys [][]byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		out = appendBytes(out, k)
	}
	return out
}

// decodeKeyList parses a count-prefixed list of keys.
func decodeKeyList(src []byte) ([][]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("%w: truncated key list", ErrProto)
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	// Each key costs at least a 4-byte length prefix; a count that could
	// not possibly fit the remaining bytes is corrupt (and must not drive
	// the allocation below).
	if uint64(n) > uint64(len(src))/4+1 {
		return nil, fmt.Errorf("%w: key list count %d exceeds payload", ErrProto, n)
	}
	keys := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		var k []byte
		var err error
		k, src, err = readBytes(src)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}
