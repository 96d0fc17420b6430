package cloudstore

// Client-side container restore pipeline.
//
// Fetching a file one chunk per RPC and buffering it whole would cost a
// 1 GiB VM image ~128k serial round trips and 1 GiB of memory. The
// container path instead:
//
//  1. fetches the manifest's *recipe* (chunk IDs + container locators),
//  2. groups consecutive recipe entries into runs — chunks that live in
//     the same container, sealed or still open,
//  3. plans, per container, the byte extents of the records the
//     stream needs from it — whole records, sorted, coalesced — so that
//     what a fetch moves scales with the bytes the stream needs, not
//     with the size of the containers dedup scattered them over,
//  4. fans the runs out to ReadAhead parallel fetchers that pull each
//     container's extents, in one RPC, through a shared LRU cache
//     (in-flight entries are pinned and deduplicated, so two runs
//     touching one container cost one RPC),
//  5. reassembles strictly in stream order into the caller's io.Writer,
//     using the PR 5 FIFO + done-token ordered fan-out pattern.
//
// Memory is bounded by what (cache capacity + in-flight runs) containers
// hold of this stream, never by file size. Every fetched record is
// CRC-checked and every payload verified against its chunk ID before a
// byte is written.

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
)

// Restore pipeline defaults.
const (
	// DefaultRestoreReadAhead is how many container fetches run in
	// parallel ahead of the reassembly cursor.
	DefaultRestoreReadAhead = 4
	// DefaultRestoreCacheContainers is the read-ahead cache capacity in
	// containers (soft: pinned in-flight entries never evict).
	DefaultRestoreCacheContainers = 8
)

// RestoreOptions tunes the streaming restore pipeline. The zero value
// picks the defaults above.
type RestoreOptions struct {
	// ReadAhead is the number of parallel container fetches.
	ReadAhead int
	// CacheContainers is the container cache capacity.
	CacheContainers int
}

func (o RestoreOptions) withDefaults() RestoreOptions {
	if o.ReadAhead <= 0 {
		o.ReadAhead = DefaultRestoreReadAhead
	}
	if o.CacheContainers <= 0 {
		o.CacheContainers = DefaultRestoreCacheContainers
	}
	return o
}

// RestoreStats reports what one streaming restore did.
type RestoreStats struct {
	// Bytes and Chunks are the reassembled stream totals.
	Bytes  int64
	Chunks int
	// ContainersTouched is the number of distinct containers the
	// stream's recipe references — the fragmentation measure (a freshly
	// packed stream touches few; a heavily deduplicated one, many).
	ContainersTouched int
	// CacheHits and CacheMisses count container-cache lookups; a miss is
	// one cloud.getcontainer RPC.
	CacheHits   int64
	CacheMisses int64
	// Deprecated: FallbackChunks is always 0. Every chunk is read from
	// its container, open or sealed.
	FallbackChunks int
	// FetchedBytes counts the response bytes of the container reads;
	// over Bytes it is the restore's fetch amplification.
	FetchedBytes int64
}

// RecipeEntry is one chunk of a manifest's restore recipe: its content
// address plus the container copy to read it from.
type RecipeEntry struct {
	ID  chunk.ID
	Loc Locator
}

// GetRecipe fetches the restore recipe of a named manifest.
func (c *Client) GetRecipe(ctx context.Context, name string) ([]RecipeEntry, error) {
	resp, err := c.call(ctx, methodGetRecipe, []byte(name))
	if err != nil {
		return nil, classifyRemote(err)
	}
	out, err := decodeRecipe(resp)
	if err != nil {
		return nil, fmt.Errorf("cloudstore: recipe response: %w", err)
	}
	return out, nil
}

// GetContainer fetches the given extents of a sealed or open container,
// concatenated — they must be ascending and must not overlap — or, for
// none, the container's raw CRC-framed bytes.
func (c *Client) GetContainer(ctx context.Context, id uint64, extents ...Extent) ([]byte, error) {
	resp, err := c.call(ctx, methodGetContainer, encodeContainerRequest(id, extents))
	if err != nil {
		return nil, classifyRemote(err)
	}
	return resp, nil
}

// --- read-ahead container cache ---------------------------------------

// cacheEntry is one container in the cache. ready is closed once chunks
// and err are set; refs pins the entry against eviction while fetchers
// and extractors hold it.
type cacheEntry struct {
	id     uint64
	ready  chan struct{}
	chunks map[chunk.ID][]byte
	err    error
	refs   int
}

// containerCache is a per-restore LRU of parsed containers with
// single-flight fetches: concurrent runs needing the same container
// share one cloud.getcontainer RPC, and in-flight or pinned entries are
// never evicted, so the memory bound is cap + in-flight containers. An
// entry holds the records its stream needs from the container — every
// one of them, so a container is fetched again only after eviction —
// and nothing else the container packs.
type containerCache struct {
	client  *Client
	cap     int
	extents map[uint64][]Extent // what a miss fetches, per container

	mu      sync.Mutex
	entries map[uint64]*cacheEntry
	lru     []uint64 // least recently used first

	hits, misses atomic.Int64
	fetched      atomic.Int64 // response bytes
}

func newContainerCache(client *Client, capacity int, extents map[uint64][]Extent) *containerCache {
	return &containerCache{
		client:  client,
		cap:     capacity,
		extents: extents,
		entries: make(map[uint64]*cacheEntry),
	}
}

// touch moves id to the most-recently-used end of the LRU list.
func (cc *containerCache) touch(id uint64) {
	for i, v := range cc.lru {
		if v == id {
			cc.lru = append(append(cc.lru[:i:i], cc.lru[i+1:]...), id)
			return
		}
	}
	cc.lru = append(cc.lru, id)
}

// evictLocked drops ready, unpinned entries (LRU first) until the cache
// is within capacity. Pinned entries make the cap soft by design.
func (cc *containerCache) evictLocked() {
	for len(cc.entries) > cc.cap {
		victim := uint64(0)
		idx := -1
		for i, id := range cc.lru {
			e := cc.entries[id]
			if e == nil {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // still fetching
			}
			if e.refs == 0 {
				victim, idx = id, i
				break
			}
		}
		if idx < 0 {
			return // everything pinned or in flight
		}
		delete(cc.entries, victim)
		cc.lru = append(cc.lru[:idx], cc.lru[idx+1:]...)
	}
}

// get returns the parsed chunk map of a container, fetching it (once)
// on a miss. The returned entry is pinned; callers must release it.
func (cc *containerCache) get(ctx context.Context, id uint64) (*cacheEntry, error) {
	cc.mu.Lock()
	if e, ok := cc.entries[id]; ok {
		e.refs++
		cc.touch(id)
		cc.mu.Unlock()
		cc.hits.Add(1)
		select {
		case <-e.ready:
		case <-ctx.Done():
			cc.release(e)
			return nil, ctx.Err()
		}
		if e.err != nil {
			cc.release(e)
			return nil, e.err
		}
		return e, nil
	}
	e := &cacheEntry{id: id, ready: make(chan struct{}), refs: 1}
	cc.entries[id] = e
	cc.touch(id)
	cc.evictLocked()
	cc.mu.Unlock()
	cc.misses.Add(1)

	data, err := cc.client.GetContainer(ctx, id, cc.extents[id]...)
	cc.fetched.Add(int64(len(data)))
	if err == nil {
		// The extents are whole records, so the reply parses as the
		// container itself does, frame CRCs included.
		e.chunks = make(map[chunk.ID][]byte)
		err = parseRecords(data, func(cid chunk.ID, payload []byte) {
			e.chunks[cid] = payload
		})
		if err != nil {
			err = fmt.Errorf("container %d: %w", id, err)
		}
	} else if errors.Is(err, ErrProto) {
		// The request was built from the recipe: it names bytes the
		// container does not hold.
		err = fmt.Errorf("%w: recipe locators of container %d: %v", ErrCorrupt, id, err)
	}
	e.err = err
	close(e.ready)
	if err != nil {
		// Failed fetches are not cached: a later retry (or a different
		// stream) refetches instead of replaying the error.
		cc.mu.Lock()
		if cc.entries[id] == e {
			delete(cc.entries, id)
			for i, v := range cc.lru {
				if v == id {
					cc.lru = append(cc.lru[:i], cc.lru[i+1:]...)
					break
				}
			}
		}
		cc.mu.Unlock()
		return nil, err
	}
	return e, nil
}

// release unpins an entry obtained from get.
func (cc *containerCache) release(e *cacheEntry) {
	cc.mu.Lock()
	e.refs--
	cc.evictLocked()
	cc.mu.Unlock()
}

// --- ordered restore pipeline -----------------------------------------

// restoreRun is one unit of restore work: a maximal run of consecutive
// recipe entries served by a single container. done is the ordering
// token: buffered so a fetcher can finish without a rendezvous,
// closed-over by the assembler which consumes runs in FIFO recipe order.
type restoreRun struct {
	entries   []RecipeEntry
	container uint64
	payloads  [][]byte
	err       error
	done      chan struct{}
}

// planRuns groups a recipe into restore runs.
func planRuns(recipe []RecipeEntry) (runs []*restoreRun) {
	for i := 0; i < len(recipe); {
		j := i + 1
		cid := recipe[i].Loc.Container
		for j < len(recipe) && recipe[j].Loc.Container == cid {
			j++
		}
		runs = append(runs, &restoreRun{
			entries:   recipe[i:j],
			container: cid,
			done:      make(chan struct{}),
		})
		i = j
	}
	return runs
}

// planExtents returns, per container of a recipe, what to ask it for:
// the records the stream needs — each whole, header included, so the
// reply is checked as a container is — sorted, with duplicates and
// neighbours merged into one extent. A locator that cannot address a
// record, container 0 included, fails here.
func planExtents(recipe []RecipeEntry) (map[uint64][]Extent, error) {
	first := uint32(len(containerMagic) + containerRecordHeader) // a container's first payload
	plan := make(map[uint64][]Extent)
	for _, e := range recipe {
		l := e.Loc
		if l.Container == 0 || l.Offset < first || uint64(l.Offset)+uint64(l.Length) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: chunk %s: recipe locator %d+%d is not a record of container %d", ErrCorrupt, e.ID, l.Offset, l.Length, l.Container)
		}
		plan[l.Container] = append(plan[l.Container], Extent{Off: l.Offset - containerRecordHeader, Len: l.Length + containerRecordHeader})
	}
	for id, extents := range plan {
		slices.SortFunc(extents, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
		merged := extents[:1]
		for _, e := range extents[1:] {
			last := &merged[len(merged)-1]
			if end := last.Off + last.Len; e.Off > end {
				merged = append(merged, e)
			} else if e.Off+e.Len > end {
				last.Len = e.Off + e.Len - last.Off
			}
		}
		plan[id] = merged
	}
	return plan, nil
}

// fetchRun materializes one run's payloads, verifying every chunk's
// content address before it can reach the assembler.
func (c *Client) fetchRun(ctx context.Context, cache *containerCache, run *restoreRun) error {
	entry, err := cache.get(ctx, run.container)
	if err != nil {
		return err
	}
	defer cache.release(entry)
	payloads := make([][]byte, len(run.entries))
	for i, e := range run.entries {
		p, ok := entry.chunks[e.ID]
		if !ok {
			return fmt.Errorf("%w: chunk %s missing from container %d", ErrCorrupt, e.ID, run.container)
		}
		if len(p) != int(e.Loc.Length) {
			return fmt.Errorf("%w: chunk %s is %d bytes in container %d, its recipe locator says %d", ErrCorrupt, e.ID, len(p), run.container, e.Loc.Length)
		}
		if chunk.Sum(p) != e.ID {
			return fmt.Errorf("%w: chunk %s corrupt in container %d", ErrCorrupt, e.ID, run.container)
		}
		payloads[i] = p
	}
	run.payloads = payloads
	return nil
}

// RestoreTo streams a named file into w, verifying every chunk, and
// returns what it moved — on failure, what it had moved by then.
// Container fetches run ReadAhead-deep in parallel through the LRU cache
// while reassembly stays strictly in stream order; memory is bounded by
// the cache, not the file.
func (c *Client) RestoreTo(ctx context.Context, name string, w io.Writer, opts RestoreOptions) (stats RestoreStats, err error) {
	opts = opts.withDefaults()
	reg := metrics.Default()
	sp := metrics.StartTimer(reg.DurationHistogram("cloud_restore_stream_seconds"))
	defer sp.End()

	recipe, err := c.GetRecipe(ctx, name)
	if err != nil {
		return stats, fmt.Errorf("cloudstore: restore %s: %w", name, err)
	}
	extents, err := planExtents(recipe)
	if err != nil {
		return stats, fmt.Errorf("cloudstore: restore %s: %w", name, err)
	}
	stats.ContainersTouched = len(extents)
	reg.Histogram("cloud_restore_containers_per_stream").Observe(int64(len(extents)))
	runs := planRuns(recipe)
	cache := newContainerCache(c, opts.CacheContainers, extents)
	// Registered before the pipeline's teardown so that it runs after it,
	// on every return: a failed restore is the one whose numbers are asked for.
	defer func() {
		stats.CacheHits = cache.hits.Load()
		stats.CacheMisses = cache.misses.Load()
		stats.FetchedBytes = cache.fetched.Load()
		reg.Counter("cloud_restore_bytes_total").Add(stats.Bytes)
		reg.Counter("cloud_restore_chunks_total").Add(int64(stats.Chunks))
		reg.Counter("cloud_restore_cache_hits_total").Add(stats.CacheHits)
		reg.Counter("cloud_restore_cache_misses_total").Add(stats.CacheMisses)
		reg.Counter("cloud_restore_fetched_bytes_total").Add(stats.FetchedBytes)
	}()
	if len(runs) == 0 {
		return stats, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	order := make(chan *restoreRun, opts.ReadAhead*2)
	work := make(chan *restoreRun, opts.ReadAhead)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer: FIFO order first, then the work queue
		defer wg.Done()
		defer close(order)
		defer close(work)
		for _, run := range runs {
			select {
			case order <- run:
			case <-ctx.Done():
				return
			}
			select {
			case work <- run:
			case <-ctx.Done():
				return
			}
		}
	}()
	for i := 0; i < opts.ReadAhead; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range work {
				run.err = c.fetchRun(ctx, cache, run)
				close(run.done)
			}
		}()
	}

	// Assembler: strictly in recipe order. On any failure, cancel and
	// fall through — the deferred wg.Wait tears the pipeline down
	// (producer and fetchers all select on ctx).
	defer wg.Wait()
	for run := range order {
		select {
		case <-run.done:
		case <-ctx.Done():
			return stats, fmt.Errorf("cloudstore: restore %s: %w", name, ctx.Err())
		}
		if run.err != nil {
			cancel()
			return stats, fmt.Errorf("cloudstore: restore %s: %w", name, run.err)
		}
		for _, p := range run.payloads {
			n, werr := w.Write(p)
			if werr != nil {
				cancel()
				return stats, fmt.Errorf("cloudstore: restore %s: write: %w", name, werr)
			}
			stats.Bytes += int64(n)
			stats.Chunks++
		}
		run.payloads = nil // let the container page age out of memory
	}
	return stats, nil
}

// Restore downloads and reassembles a named file in memory. It is a
// convenience wrapper over RestoreTo; large restores should stream.
func (c *Client) Restore(ctx context.Context, name string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := c.RestoreTo(ctx, name, &buf, RestoreOptions{}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
