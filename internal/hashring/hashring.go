// Package hashring implements consistent hashing with virtual nodes: the
// partitioner of the distributed key-value store that holds each D2-ring's
// deduplication index (the paper's Cassandra "random partitioning
// strategy").
//
// Every physical node contributes a configurable number of virtual points
// on a 64-bit hash circle. A key is owned by the first point clockwise from
// the key's hash; replicas live on the next distinct physical nodes.
// Virtual nodes smooth the load distribution and keep data movement
// proportional to 1/N when membership changes.
package hashring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the default number of points per physical node.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring. It is safe for concurrent use. The zero
// value is not usable; construct with New.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	points []point         // sorted by hash
	nodes  map[string]bool // physical node membership
}

type point struct {
	hash uint64
	node string
}

// New returns an empty ring with the given number of virtual points per
// node. vnodes must be positive.
func New(vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		return nil, fmt.Errorf("hashring: virtual node count %d must be positive", vnodes)
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}, nil
}

// hash64 maps arbitrary bytes onto the circle via SHA-256 (truncated),
// which is uniform and stable across platforms.
func hash64(data []byte) uint64 {
	sum := sha256.Sum256(data)
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a physical node. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		h := hash64(fmt.Appendf(nil, "%s#%d", node, i))
		r.points = append(r.points, point{hash: h, node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a physical node and all its points. Removing an unknown
// node is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the number of physical nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the physical node names in unspecified order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	return out
}

// Lookup returns up to n distinct physical nodes responsible for key, in
// preference order (primary first, then successive replicas clockwise).
// It returns fewer nodes when the ring has fewer than n members and nil
// when the ring is empty.
func (r *Ring) Lookup(key []byte, n int) []string {
	if n <= 0 {
		return nil
	}
	if out := r.LookupAppend(make([]string, 0, n), key, n); len(out) > 0 {
		return out
	}
	return nil
}

// LookupAppend is Lookup appending the nodes to dst, which lets a caller
// reuse one slice across keys. It allocates nothing of its own: n is a
// replication factor, so a linear scan of what it appended finds a
// node already taken.
func (r *Ring) LookupAppend(dst []string, key []byte, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	n = min(n, len(r.nodes))
	h := hash64(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	start := len(dst)
	for i := 0; i < len(r.points) && len(dst)-start < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !slices.Contains(dst[start:], p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}

// Owner returns the primary node for key, or "" on an empty ring.
func (r *Ring) Owner(key []byte) string {
	owners := r.Lookup(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}
