package kvstore

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"time"

	"efdedup/internal/codec"
	"efdedup/internal/hashring"
)

// Anti-entropy: Merkle-style fanout digests between replicas.
//
// A restarted or previously partitioned replica has no way to learn what
// it missed from liveness signals alone: a write that failed while it was
// unreachable is not retried, and a node that lost disk state looks
// healthy while silently answering "miss" for chunks the ring already
// paid to index. The repair protocol closes that gap, and is the one path
// by which a replica catches up:
//
//	kv.digest  →  per-bucket XOR digests over one replica pair's shared
//	              key range (keys whose replica set contains both nodes)
//	kv.pull    →  the full entries of a chosen bucket subset
//
// The coordinator compares the two digests bucket by bucket, pulls only
// the differing buckets from both sides, merges them last-write-wins on
// the entry version (wall-clock-derived — "entry timestamps break
// conflicts"), and pushes what each side is missing through the ordinary
// kv.batchput path, which preserves versions and is idempotent. Equal
// replicas cost two ~3 KB digest RPCs per pair and nothing else.
//
// The scope filter is what makes digests comparable under consistent
// hashing with RF < N: each node holds a different subset of the key
// space, so raw table digests would always differ. The request therefore
// carries the ring parameters (members, RF, virtual nodes) and the pair
// being compared; each node rebuilds the same ring and digests only keys
// whose replica set contains both pair members — an identical key set on
// both sides whenever both are converged.

// digestBuckets is the fanout of the digest tree: wide enough that one
// divergent key re-transfers ~1/256th of the shared range, small enough
// that a full digest is a single 3 KB frame.
const digestBuckets = 256

// digestReq is the wire form of a kv.digest / kv.pull scope.
type digestReq struct {
	rf      int
	vnodes  int
	members [][]byte
	scope   [][]byte // addresses that must all be in a key's replica set
}

// encodeDigestReq serializes the scope filter.
func encodeDigestReq(rf, vnodes int, members, scope []string) []byte {
	out := codec.U32(nil, uint32(rf))
	out = codec.U32(out, uint32(vnodes))
	out = codec.U32(out, uint32(len(members)))
	for _, m := range members {
		out = codec.Bytes32(out, m)
	}
	out = codec.U32(out, uint32(len(scope)))
	for _, s := range scope {
		out = codec.Bytes32(out, s)
	}
	return out
}

// readDigestReq reads and validates a scope filter off r.
func readDigestReq(r *codec.Reader) (req digestReq, err error) {
	req.rf = int(r.U32())
	req.vnodes = int(r.U32())
	req.members = readBlobs(r)
	req.scope = readBlobs(r)
	switch {
	case r.Err() != nil:
		return req, fmt.Errorf("kvstore: digest request: %w", r.Err())
	case req.rf <= 0 || req.rf > 1024 || req.vnodes <= 0 || req.vnodes > 4096:
		return req, fmt.Errorf("%w: digest request rf=%d vnodes=%d out of range", ErrProto, req.rf, req.vnodes)
	case len(req.members) == 0:
		return req, fmt.Errorf("%w: digest request without members", ErrProto)
	case len(req.scope) == 0:
		return req, fmt.Errorf("%w: digest request without scope", ErrProto)
	}
	return req, nil
}

// ring builds the consistent-hash ring the request describes. Both sides
// of a comparison build identical rings, so the scope predicate agrees.
func (req digestReq) ring() (*hashring.Ring, error) {
	r, err := hashring.New(req.vnodes)
	if err != nil {
		return nil, err
	}
	for _, m := range req.members {
		r.Add(string(m))
	}
	return r, nil
}

// inScope reports whether every scope address is in key's replica set.
func (req digestReq) inScope(ring *hashring.Ring, key []byte) bool {
	reps := ring.Lookup(key, req.rf)
	for _, s := range req.scope {
		found := false
		for _, r := range reps {
			if r == string(s) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// fnv64 constants (inlined to keep the per-entry digest allocation-free).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// entryDigest hashes one table entry (key, version, value) and names the
// bucket it lands in. XOR-combining per-entry hashes gives an
// order-independent bucket digest.
func entryDigest(key string, e Entry) (bucket int, hash uint64) {
	kh := fnvMix(fnvOffset, []byte(key))
	bucket = int(kh % digestBuckets)
	var v [8]byte
	codec.U64(v[:0], e.Version) // fills v in place
	hash = fnvMix(fnvMix(kh, v[:]), e.Value)
	return bucket, hash
}

// bucketDigest is one bucket's summary.
type bucketDigest struct {
	hash  uint64
	count uint32
}

// digestTable computes the per-bucket digests of table entries in scope.
func digestTable(req digestReq, ring *hashring.Ring, table map[string]Entry) [digestBuckets]bucketDigest {
	var out [digestBuckets]bucketDigest
	for k, e := range table {
		if !req.inScope(ring, []byte(k)) {
			continue
		}
		b, h := entryDigest(k, e)
		out[b].hash ^= h
		out[b].count++
	}
	return out
}

// encodeDigestResp serializes the 256 bucket digests.
func encodeDigestResp(d [digestBuckets]bucketDigest) []byte {
	out := codec.U32(make([]byte, 0, 4+digestBuckets*12), digestBuckets)
	for _, b := range d {
		out = codec.U64(out, b.hash)
		out = codec.U32(out, b.count)
	}
	return out
}

// decodeDigestResp parses a kv.digest response.
func decodeDigestResp(src []byte) ([digestBuckets]bucketDigest, error) {
	var out [digestBuckets]bucketDigest
	r := codec.NewReader(src, ErrProto)
	if n := r.Count(12); n != digestBuckets && r.Err() == nil {
		return out, fmt.Errorf("%w: digest fanout %d, want %d", ErrProto, n, digestBuckets)
	}
	for i := range out {
		out[i].hash = r.U64()
		out[i].count = r.U32()
	}
	return out, r.End()
}

// bucketSet is a bitmap over the digest fanout.
type bucketSet [digestBuckets / 8]byte

func (s *bucketSet) add(b int)      { s[b/8] |= 1 << (b % 8) }
func (s *bucketSet) has(b int) bool { return s[b/8]&(1<<(b%8)) != 0 }
func (s *bucketSet) empty() bool    { return *s == bucketSet{} }

// encodePullReq appends the wanted-bucket bitmap, which is ID-sized, to
// a digest request.
func encodePullReq(rf, vnodes int, members, scope []string, want bucketSet) []byte {
	out := encodeDigestReq(rf, vnodes, members, scope)
	return codec.ID(out, want)
}

// decodePullReq parses a kv.pull request.
func decodePullReq(src []byte) (digestReq, bucketSet, error) {
	r := codec.NewReader(src, ErrProto)
	req, err := readDigestReq(&r)
	want := bucketSet(r.ID())
	return req, want, cmp.Or(err, r.End())
}

// --- node handlers ------------------------------------------------------

// handleDigest computes this replica's bucket digests for the requested
// scope.
func (n *Node) handleDigest(body []byte) ([]byte, error) {
	r := codec.NewReader(body, ErrProto)
	req, err := readDigestReq(&r)
	if err = cmp.Or(err, r.End()); err != nil {
		return nil, err
	}
	ring, err := req.ring()
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	d := digestTable(req, ring, n.table)
	n.mu.RUnlock()
	return encodeDigestResp(d), nil
}

// handlePull streams the full entries of the requested buckets (the
// count-prefixed sequence decodeScan reads), scope-filtered like the
// digest they were chosen from.
func (n *Node) handlePull(body []byte) ([]byte, error) {
	req, want, err := decodePullReq(body)
	if err != nil {
		return nil, err
	}
	ring, err := req.ring()
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	count := uint32(0)
	out := make([]byte, 4)
	for k, e := range n.table {
		if !req.inScope(ring, []byte(k)) {
			continue
		}
		if b, _ := entryDigest(k, e); !want.has(b) {
			continue
		}
		out = encodeEntry(out, []byte(k), e)
		count++
	}
	codec.U32(out[:0], count) // fills the count the scan left blank
	return out, nil
}

// --- coordinator repair -------------------------------------------------

// RepairStats summarizes one anti-entropy round.
type RepairStats struct {
	// Pairs is how many replica pairs were compared.
	Pairs int
	// Mismatched is how many pairs had at least one differing bucket.
	Mismatched int
	// Pushed is how many entries were re-replicated to a stale replica.
	Pushed int
	// Conflicts counts same-version different-value collisions resolved
	// by re-writing the deterministic winner at a bumped version.
	Conflicts int
	// Failed is how many pairs were skipped because a digest or pull RPC
	// failed; they are retried on the next round.
	Failed int
}

// Converged reports whether the round proved every compared pair equal:
// nothing differed and nothing failed.
func (s RepairStats) Converged() bool {
	return s.Mismatched == 0 && s.Failed == 0 && s.Pushed == 0
}

// RepairOnce runs one anti-entropy round over every replica pair,
// reconciling differing buckets last-write-wins. It is safe to run
// concurrently with reads and writes: pushes ride the ordinary batchput
// path and respect entry versions.
func (c *Cluster) RepairOnce(ctx context.Context) (RepairStats, error) {
	var stats RepairStats
	members := c.Members()
	rf := c.cfg.ReplicationFactor
	vnodes := c.cfg.VirtualNodes
	if rf < 2 || len(members) < 2 {
		// Nothing is replicated; there is no second copy to reconcile.
		return stats, nil
	}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			a, b := members[i], members[j]
			stats.Pairs++
			if err := c.repairPair(ctx, &stats, rf, vnodes, members, a, b); err != nil {
				stats.Failed++
				c.met.repairFails.Inc()
				if ctx.Err() != nil {
					return stats, fmt.Errorf("kvstore: repair: %w", ctx.Err())
				}
			}
		}
	}
	c.met.repairRounds.Inc()
	return stats, nil
}

// repairPair reconciles one replica pair's shared key range.
func (c *Cluster) repairPair(ctx context.Context, stats *RepairStats, rf, vnodes int, members []string, a, b string) error {
	reqBody := encodeDigestReq(rf, vnodes, members, []string{a, b})
	respA, err := c.call(ctx, a, methodDigest, reqBody)
	if err != nil {
		return err
	}
	respB, err := c.call(ctx, b, methodDigest, reqBody)
	if err != nil {
		return err
	}
	da, err := decodeDigestResp(respA)
	if err != nil {
		return err
	}
	db, err := decodeDigestResp(respB)
	if err != nil {
		return err
	}
	var want bucketSet
	for i := 0; i < digestBuckets; i++ {
		if da[i] != db[i] {
			want.add(i)
		}
	}
	if want.empty() {
		return nil
	}
	stats.Mismatched++
	c.met.repairMismatch.Inc()
	pullBody := encodePullReq(rf, vnodes, members, []string{a, b}, want)
	entsA, err := c.pullEntries(ctx, a, pullBody)
	if err != nil {
		return err
	}
	entsB, err := c.pullEntries(ctx, b, pullBody)
	if err != nil {
		return err
	}
	pushA, pushB, conflicts := diffEntries(entsA, entsB)
	stats.Conflicts += conflicts
	if err := c.pushEntries(ctx, a, pushA); err != nil {
		return err
	}
	if err := c.pushEntries(ctx, b, pushB); err != nil {
		return err
	}
	pushed := len(pushA) + len(pushB)
	stats.Pushed += pushed
	c.met.repairPushed.Add(int64(pushed))
	return nil
}

// pullEntries fetches one side's differing buckets as a key→entry map.
func (c *Cluster) pullEntries(ctx context.Context, addr string, body []byte) (map[string]Entry, error) {
	resp, err := c.call(ctx, addr, methodPull, body)
	if err != nil {
		return nil, err
	}
	ents, err := decodeScan(resp)
	if err != nil {
		return nil, fmt.Errorf("kvstore: repair pull %s: %w", addr, err)
	}
	out := make(map[string]Entry, len(ents))
	for _, kv := range ents {
		out[string(kv.key)] = kv.e
	}
	return out, nil
}

// diffEntries merges two replicas' bucket contents last-write-wins and
// returns what each side is missing. A same-version different-value
// collision (possible when two coordinators seed the same wall-clock
// version) cannot be fixed at its own version — applyPut rejects
// version ties — so the deterministic winner (larger value bytes) is
// re-written to both sides at version+1, which converges.
func diffEntries(a, b map[string]Entry) (pushA, pushB []keyedEntry, conflicts int) {
	for k, ea := range a {
		eb, ok := b[k]
		switch {
		case !ok || eb.Version < ea.Version:
			pushB = append(pushB, keyedEntry{key: []byte(k), e: ea})
		case eb.Version == ea.Version && !bytes.Equal(eb.Value, ea.Value):
			conflicts++
			win := ea
			if bytes.Compare(eb.Value, ea.Value) > 0 {
				win = eb
			}
			win.Version++
			se := keyedEntry{key: []byte(k), e: win}
			pushA = append(pushA, se)
			pushB = append(pushB, se)
		}
	}
	for k, eb := range b {
		if ea, ok := a[k]; !ok || ea.Version < eb.Version {
			pushA = append(pushA, keyedEntry{key: []byte(k), e: eb})
		}
	}
	return pushA, pushB, conflicts
}

// pushEntries delivers repair entries to one replica in batchput batches,
// preserving versions so last-write-wins holds.
func (c *Cluster) pushEntries(ctx context.Context, addr string, ents []keyedEntry) error {
	for start := 0; start < len(ents); start += pushBatch {
		batch := ents[start:min(start+pushBatch, len(ents))]
		if _, err := c.call(ctx, addr, methodBatchPut, appendScan(nil, batch)); err != nil {
			return err
		}
	}
	return nil
}

// repairLoop runs anti-entropy rounds every RepairInterval until Close.
func (c *Cluster) repairLoop() {
	defer close(c.repairDone)
	ticker := time.NewTicker(c.cfg.RepairInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.repairTimeout())
			// Failures are already counted per pair in the stats and
			// metrics; the loop's job is to keep trying.
			_, _ = c.RepairOnce(ctx)
			cancel()
		case <-c.stopRepair:
			return
		}
	}
}

// repairTimeout bounds one background round: digest+pull+push across all
// pairs, each call already bounded by the per-attempt timeout and the
// retry policy.
func (c *Cluster) repairTimeout() time.Duration {
	n := len(c.Members())
	return time.Duration(max(n*n, 1)) * c.cfg.Retry.AttemptTimeout
}
