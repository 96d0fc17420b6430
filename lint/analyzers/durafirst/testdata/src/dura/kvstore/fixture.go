// Fixtures for the durafirst analyzer: in handler methods, the
// mutex-guarded receiver mutation must be dominated by the durable
// call on every path that acks success.
package kvstore

import (
	"bufio"
	"errors"
	"sync"

	"dura/reclog"
)

var errRejected = errors.New("rejected")

// WAL and containerLog mirror the real durability facilities by name —
// the analyzer matches (*WAL).Append and appendFrames, containerLog.sync
// and reclog.WriteFileAtomic.
type containerLog interface {
	append(rec []byte) error
	sync() error
}

type WAL struct{}

func (w *WAL) Append(rec []byte) error { return nil }

func (w *WAL) appendFrames(frames []byte) error { return nil }

type nodeStats struct{ puts int }

type Node struct {
	mu      sync.Mutex
	wal     *WAL
	log     containerLog
	table   map[string][]byte
	catalog map[string][]string
	puts    int
	scratch []byte
	stats   nodeStats
}

func (n *Node) applyPut(k string, v []byte) {
	n.mu.Lock()
	n.table[k] = v
	n.mu.Unlock()
}

func (n *Node) persist(v []byte) error { return n.wal.Append(v) }

// store is the chunk-store shape: append, sync, then index — ordered on
// its own, and no cover for what its caller mutates next.
func (n *Node) store(k string, v []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.log.append(v); err != nil {
		return err
	}
	if err := n.log.sync(); err != nil {
		return err
	}
	n.table[k] = v
	return nil
}

// --- positives -------------------------------------------------------

// The PR6 bug shape: apply to the table, then log. A crash between the
// two acks state the WAL never saw.
func (n *Node) handleDirty(k string, v []byte) ([]byte, error) {
	n.mu.Lock()
	n.table[k] = v // want `mutated before the durable write`
	n.mu.Unlock()
	if err := n.wal.Append(v); err != nil {
		return nil, err
	}
	return v, nil
}

// The container-log shape of the same bug: appended and indexed, but
// the sync that makes the record durable comes after.
func (n *Node) handleIndexBeforeSync(k string, v []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.log.append(v); err != nil {
		return nil, err
	}
	n.table[k] = v // want `mutated before the durable write`
	if err := n.log.sync(); err != nil {
		return nil, err
	}
	return v, nil
}

// Only the fast arm forgets the ordering.
func (n *Node) handleOneArm(k string, v []byte, fast bool) ([]byte, error) {
	if fast {
		n.mu.Lock()
		n.table[k] = v // want `mutated before the durable write`
		n.mu.Unlock()
		return v, nil
	}
	if err := n.wal.Append(v); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.table[k] = v
	n.mu.Unlock()
	return v, nil
}

// The mutation hides one call level down; the callee summary surfaces
// it at the call site.
func (n *Node) handleViaApply(k string, v []byte) ([]byte, error) {
	n.applyPut(k, v) // want `mutated before the durable write`
	if err := n.wal.Append(v); err != nil {
		return nil, err
	}
	return v, nil
}

// The atomic install comes after the catalog already advertises it.
func (n *Node) handleIndexBeforeInstall(k string, v []byte) ([]byte, error) {
	n.mu.Lock()
	n.table[k] = v // want `mutated before the durable write`
	n.mu.Unlock()
	err := reclog.WriteFileAtomic(k, func(w *bufio.Writer) error {
		_, err := w.Write(v)
		return err
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Deferred unlock holds the mutex to function end; the mutation is
// still guarded, and there is no durable call at all.
func (n *Node) handleDeferDirty(k string, v []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.table[k] = v // want `mutated before the durable write`
	return v, nil
}

// The commit shape: the tail chunks are durable, but the manifest is
// advertised before the sync that makes its record durable.
func (n *Node) handleCatalogBeforeManifest(k string, v []byte, ids []string) ([]byte, error) {
	if err := n.store(k, v); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.log.append(v); err != nil {
		return nil, err
	}
	n.catalog[k] = ids // want `mutated before the durable write`
	if err := n.log.sync(); err != nil {
		return nil, err
	}
	return v, nil
}

// --- negatives -------------------------------------------------------

// Correct order: log first, then apply.
func (n *Node) handleClean(k string, v []byte) ([]byte, error) {
	if err := n.wal.Append(v); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.table[k] = v
	n.puts++
	n.mu.Unlock()
	return v, nil
}

// The batch form: the whole batch is logged, then applied.
func (n *Node) handleBatchClean(ks []string, frames []byte) ([]byte, error) {
	if err := n.wal.appendFrames(frames); err != nil {
		return nil, err
	}
	n.mu.Lock()
	for _, k := range ks {
		n.table[k] = frames
	}
	n.mu.Unlock()
	return frames, nil
}

// Install the file atomically, then advertise it.
func (n *Node) handleInstallThenIndex(k string, v []byte) ([]byte, error) {
	err := reclog.WriteFileAtomic(k, func(w *bufio.Writer) error {
		_, err := w.Write(v)
		return err
	})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.table[k] = v
	n.mu.Unlock()
	return v, nil
}

// Append, sync, and only then index: the container-log order.
func (n *Node) handleSyncThenIndex(k string, v []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.log.append(v); err != nil {
		return nil, err
	}
	if err := n.log.sync(); err != nil {
		return nil, err
	}
	n.table[k] = v
	return v, nil
}

// In-memory-only configuration: the nil-guard arm has no facility to
// order against, so both arms are clean.
func (n *Node) handleNilGuard(k string, v []byte) ([]byte, error) {
	if n.wal != nil {
		if err := n.wal.Append(v); err != nil {
			return nil, err
		}
	}
	n.mu.Lock()
	n.table[k] = v
	n.mu.Unlock()
	return v, nil
}

// The durable call hides one level down too.
func (n *Node) handleViaPersist(k string, v []byte) ([]byte, error) {
	if err := n.persist(v); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.table[k] = v
	n.mu.Unlock()
	return v, nil
}

// The commit order: store the tail, append the manifest's record and
// sync it, then advertise it.
func (n *Node) handleCommit(k string, v []byte, ids []string) ([]byte, error) {
	if err := n.store(k, v); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.log.append(v); err != nil {
		return nil, err
	}
	if err := n.log.sync(); err != nil {
		return nil, err
	}
	n.catalog[k] = ids
	return v, nil
}

// A path that never acks success owes no durability ordering.
func (n *Node) handleReject(k string) ([]byte, error) {
	n.mu.Lock()
	delete(n.table, k)
	n.mu.Unlock()
	return nil, errRejected
}

// Unguarded writes are a different analyzer's concern.
func (n *Node) handleUnlocked(k string, v []byte) ([]byte, error) {
	n.scratch = v
	return v, nil
}

// Observability counters are not ack-promised state: updating them
// before the durable write is exempt.
func (n *Node) handleStatsFirst(k string, v []byte) ([]byte, error) {
	n.mu.Lock()
	n.stats.puts++
	n.mu.Unlock()
	if err := n.wal.Append(v); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.table[k] = v
	n.mu.Unlock()
	return v, nil
}

// Suppression: the reasoned directive silences the finding.
func (n *Node) handleSuppressed(k string, v []byte) ([]byte, error) {
	n.mu.Lock()
	//lint:ignore durafirst replay path; durability handled by the caller
	n.table[k] = v
	n.mu.Unlock()
	_ = n.wal.Append(v)
	return v, nil
}
