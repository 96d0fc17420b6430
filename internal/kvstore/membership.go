package kvstore

import (
	"context"
	"fmt"
	"slices"

	"efdedup/internal/transport"
)

// Membership changes. The paper highlights that with a Cassandra-style
// ring "adding and removing nodes to the cluster is a seamless
// operation"; this file implements that for the coordinator: membership
// updates adjust the consistent-hash ring, and Rebalance re-replicates
// every key to its current replica set so placement invariants hold again
// after churn.

// AddMember joins a new storage node to the ring. Keys are not moved
// until Rebalance runs; until then a lookup whose new primary is the
// joiner misses, which costs the agent a redundant upload and nothing
// else, so the operation is non-disruptive.
func (c *Cluster) AddMember(addr string) error {
	if addr == "" {
		return fmt.Errorf("%w: empty member address", ErrConfig)
	}
	c.mu.Lock()
	if slices.Contains(c.cfg.Members, addr) {
		c.mu.Unlock()
		return fmt.Errorf("%w: member %q already present", ErrConfig, addr)
	}
	c.cfg.Members = append(c.cfg.Members, addr)
	c.ring.Add(addr)
	c.mu.Unlock()
	c.registerBreakerGauge(addr) // outside the lock, like Forget below
	return nil
}

// RemoveMember leaves a node out of the ring (e.g. decommissioning).
// Keys it exclusively held remain reachable only if replication placed
// copies elsewhere; run Rebalance afterwards to restore full replication.
func (c *Cluster) RemoveMember(addr string) error {
	c.mu.Lock()
	found := -1
	for i, m := range c.cfg.Members {
		if m == addr {
			found = i
			break
		}
	}
	if found < 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: member %q not found", ErrConfig, addr)
	}
	if len(c.cfg.Members) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("%w: cannot remove the last member", ErrConfig)
	}
	c.cfg.Members = append(c.cfg.Members[:found], c.cfg.Members[found+1:]...)
	c.ring.Remove(addr)
	if c.cfg.LocalAddr == addr {
		c.cfg.LocalAddr = ""
	}
	c.mu.Unlock()
	c.peers.Forget(addr) // closes the connection, outside the lock
	return nil
}

// Rebalance reads every reachable member's table and re-replicates each
// key to its current replica set, restoring placement after membership
// changes. A member's table is read with kv.pull scoped to a ring of that
// member alone, which puts every key it holds in scope. Entries keep
// their versions, so last-write-wins semantics are preserved and
// re-running Rebalance is idempotent.
func (c *Cluster) Rebalance(ctx context.Context) error {
	var all bucketSet
	for b := 0; b < digestBuckets; b++ {
		all.add(b)
	}
	seen := make(map[string]uint64) // key -> newest version already pushed
	for _, addr := range c.Members() {
		self := []string{addr}
		resp, err := c.call(ctx, addr, methodPull, encodePullReq(1, c.cfg.VirtualNodes, self, self, all))
		if err != nil {
			if transport.IsRemoteError(err) {
				// The member answered and refused: not an outage to skip.
				return fmt.Errorf("kvstore: rebalance read %s: %w", addr, err)
			}
			// An unreachable member's data is covered by its replicas'
			// tables; skip it.
			continue
		}
		entries, err := decodeScan(resp)
		if err != nil {
			return fmt.Errorf("kvstore: rebalance read %s: %w", addr, err)
		}
		fresh := entries[:0]
		for _, kv := range entries {
			if v, ok := seen[string(kv.key)]; ok && v >= kv.e.Version {
				continue
			}
			seen[string(kv.key)] = kv.e.Version
			fresh = append(fresh, kv)
		}
		for start := 0; start < len(fresh); start += pushBatch {
			batch := fresh[start:min(start+pushBatch, len(fresh))]
			if err := c.putEntries(ctx, batch); err != nil {
				return fmt.Errorf("kvstore: rebalance from %s: %w", addr, err)
			}
		}
	}
	return nil
}
