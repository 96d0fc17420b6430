package cloudstore

// Restore: the cloud assembles each page, the edge verifies it.
//
// A restore over the WAN pays round trips, not bytes, so one paged RPC,
// cloud.read(name, firstChunk), carries everything a page of the stream
// needs (DESIGN.md §11.2). The server reads each container the page
// touches once and checks its record CRCs, so damage is an ErrCorrupt
// naming the container. The reply holds the page's chunk IDs in stream
// order and each distinct payload once; the client hashes every payload
// and writes the IDs in order, and an ID no payload hashes to is
// ErrCorrupt. Pages are aligned to readPageChunks, so a stream of at most
// that many chunks is one round trip; the first page goes alone, since
// its reply gives the chunk count, and later pages go ReadAhead deep.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
)

// DefaultRestoreReadAhead is how many pages a restore keeps in flight
// ahead of the one it writes.
const DefaultRestoreReadAhead = 4

// Page geometry of cloud.read.
const (
	// readPageChunks is the chunk count of a page; pages start at its
	// multiples.
	readPageChunks = 256
	// readPageBytes caps the distinct payload bytes of one reply: what
	// readPageChunks chunks at the gear chunker's 64 KiB maximum hold.
	// A reply always carries at least one chunk.
	readPageBytes = readPageChunks * 64 << 10
)

// RestoreOptions tunes the streaming restore pipeline. The zero value
// picks the defaults above.
type RestoreOptions struct {
	// ReadAhead is the number of pages in flight.
	ReadAhead int
}

// RestoreStats reports what one streaming restore did.
type RestoreStats struct {
	// Bytes and Chunks are the reassembled stream totals.
	Bytes  int64
	Chunks int
	// Pages counts the cloud.read replies: one per page, unless the
	// page's payloads outgrew one reply.
	Pages int
	// ContainersTouched sums, over the replies, the containers the
	// server read to build them — the fragmentation measure (a freshly
	// packed stream touches few; a heavily deduplicated one, many).
	ContainersTouched int
	// Deprecated: CacheHits and CacheMisses are always 0. The server
	// reads each container a page needs once; the client caches nothing.
	CacheHits   int64
	CacheMisses int64
	// Deprecated: FallbackChunks is always 0. Every chunk is read from
	// its container, open or sealed.
	FallbackChunks int
	// FetchedBytes counts the reply bytes of the pages; over Bytes it is
	// the restore's fetch amplification.
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

// GetContainer fetches a sealed or open container's raw CRC-framed
// bytes.
func (c *Client) GetContainer(ctx context.Context, id uint64) ([]byte, error) {
	resp, err := c.call(ctx, methodGetContainer, encodeContainerRequest(id))
	if err != nil {
		return nil, classifyRemote(err)
	}
	return resp, nil
}

// --- server: page assembly ---------------------------------------------

// pageReply is a cloud.read reply.
type pageReply struct {
	total      uint32  // chunks in the manifest
	manifest   Locator // where the manifest's records are: its version
	containers uint32  // containers read for this reply
	ids        []chunk.ID
	payloads   [][]byte // each distinct payload of ids once
}

// readPage builds the reply to cloud.read(name, first): the chunks from
// first up to the next multiple of readPageChunks, cut short where their
// distinct payloads would pass readPageBytes, each container read once.
// A page may start at the manifest's end, and holds nothing there. The
// first page checks the whole manifest; later ones read their IDs only.
func (cs *containerStore) readPage(name string, first int) (pageReply, error) {
	ref, total, err := cs.manifestRef(name)
	if err == nil && first > total {
		err = fmt.Errorf("%w: manifest %q has %d chunks, no page starts at %d", ErrProto, name, total, first)
	}
	if err != nil {
		return pageReply{}, err
	}
	end := min(total, (first/readPageChunks+1)*readPageChunks)
	var ids []chunk.ID
	if first == 0 {
		ids, err = cs.manifest(name, ref, total)
		ids = ids[:min(len(ids), end)]
	} else {
		ids, err = cs.manifestIDs(name, ref, first, end)
	}
	if err != nil {
		return pageReply{}, err
	}
	entries := cs.locateAll(ids)
	seen := make(map[chunk.ID]bool, len(entries))
	for i, size := 0, 0; i < len(entries); i++ {
		if e := entries[i]; !seen[e.ID] {
			if size += int(e.Loc.Length); size > readPageBytes && i > 0 {
				entries = entries[:i]
				break
			}
			seen[e.ID] = true
		}
	}
	found, containers, err := cs.readPayloads(entries)
	if err != nil {
		return pageReply{}, err
	}
	p := pageReply{total: uint32(total), manifest: Locator{Container: ref.Container, Offset: ref.Offset}, containers: uint32(containers), ids: make([]chunk.ID, len(entries))}
	for i, e := range entries {
		p.ids[i] = e.ID
		if data, ok := found[e.ID]; ok {
			p.payloads = append(p.payloads, data)
			delete(found, e.ID)
		}
	}
	return p, nil
}

// --- client: verify, then write -----------------------------------------

// page is one aligned page of a restore: its chunk IDs in stream order
// and their verified payloads. done closes once ids, payloads and err
// are set.
type page struct {
	first    int
	ids      []chunk.ID
	payloads map[chunk.ID][]byte
	err      error
	done     chan struct{}
}

// restoreAcct is what the replies of one restore moved, counted as they
// arrive, so a failed restore still reports its fetches.
type restoreAcct struct {
	pages, containers, fetched atomic.Int64
}

// fetchPage fills p with the chunks [p.first, end) of the named stream,
// end being the page's bound under head's chunk count, and verifies
// them: every payload is indexed by its SHA-256, and every ID must have
// one. head is the first reply's, or zero for the first page, whose
// reply fetchPage returns. Each later reply must come from the same
// manifest version.
func (c *Client) fetchPage(ctx context.Context, name string, p *page, head pageReply, acct *restoreAcct) (pageReply, error) {
	p.payloads = make(map[chunk.ID][]byte)
	for at, end := p.first, p.first+1; at < end; {
		body, err := encodeReadRequest(name, uint32(at))
		if err != nil {
			return head, err
		}
		resp, err := c.call(ctx, methodRead, body)
		if err != nil {
			return head, classifyRemote(err)
		}
		acct.pages.Add(1)
		acct.fetched.Add(int64(len(resp)))
		r, err := decodePage(resp)
		if err != nil {
			return head, fmt.Errorf("page at chunk %d: %w", at, err)
		}
		acct.containers.Add(int64(r.containers))
		if at == 0 {
			head = r
		}
		if r.total != head.total || r.manifest != head.manifest {
			return head, fmt.Errorf("%w: manifest %q was replaced during the restore", ErrNotFound, name)
		}
		end = min(int(head.total), (p.first/readPageChunks+1)*readPageChunks)
		if len(r.ids) == 0 && at < end || at+len(r.ids) > end {
			return head, fmt.Errorf("%w: page at chunk %d holds %d of the %d chunks left", ErrProto, at, len(r.ids), end-at)
		}
		for _, data := range r.payloads {
			p.payloads[chunk.Sum(data)] = data
		}
		p.ids = append(p.ids, r.ids...)
		at += len(r.ids)
	}
	for _, id := range p.ids {
		if _, ok := p.payloads[id]; !ok {
			return head, fmt.Errorf("%w: chunk %s: no payload of the page hashes to it", ErrCorrupt, id)
		}
	}
	return head, nil
}

// RestoreTo streams a named file into w, verifying every chunk, and
// returns what it moved — on failure, what it had moved by then. The
// first page is fetched alone; later pages are fetched ReadAhead ahead of
// the one being written, which stays strictly in stream order, so memory
// is bounded by the pages in flight, not the file.
func (c *Client) RestoreTo(ctx context.Context, name string, w io.Writer, opts RestoreOptions) (stats RestoreStats, err error) {
	if opts.ReadAhead <= 0 {
		opts.ReadAhead = DefaultRestoreReadAhead
	}
	reg := metrics.Default()
	sp := metrics.StartTimer(reg.DurationHistogram("cloud_restore_stream_seconds"))
	defer sp.End()

	var acct restoreAcct
	// Registered before the pipeline's teardown so that it runs after it,
	// on every return: a failed restore is the one whose numbers are asked for.
	defer func() {
		stats.Pages = int(acct.pages.Load())
		stats.ContainersTouched = int(acct.containers.Load())
		stats.FetchedBytes = acct.fetched.Load()
		reg.Counter("cloud_restore_bytes_total").Add(stats.Bytes)
		reg.Counter("cloud_restore_chunks_total").Add(int64(stats.Chunks))
		reg.Counter("cloud_restore_pages_total").Add(int64(stats.Pages))
		reg.Counter("cloud_restore_fetched_bytes_total").Add(stats.FetchedBytes)
		if err != nil {
			err = fmt.Errorf("cloudstore: restore %s: %w", name, err)
		} else {
			reg.Histogram("cloud_restore_containers_per_stream").Observe(int64(stats.ContainersTouched))
		}
	}()

	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // before wg.Wait: a failed restore stops the producer and fetchers
	first := &page{done: make(chan struct{})}
	head, err := c.fetchPage(ctx, name, first, pageReply{}, &acct)
	if err != nil {
		return stats, err
	}
	close(first.done)
	// A slot is a page fetched or being fetched and not yet written: the
	// one being written and ReadAhead behind it.
	slots := make(chan struct{}, opts.ReadAhead+1)
	order := make(chan *page, opts.ReadAhead+1) // never more unread pages than slots
	slots <- struct{}{}
	order <- first
	wg.Add(1)
	go func() { // producer: later pages, in order, a slot each
		defer wg.Done()
		defer close(order)
		for at := readPageChunks; at < int(head.total); at += readPageChunks {
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				return
			}
			p := &page{first: at, done: make(chan struct{})}
			order <- p
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, p.err = c.fetchPage(ctx, name, p, head, &acct)
				close(p.done)
			}()
		}
	}()

	for p := range order {
		select {
		case <-p.done:
		case <-ctx.Done():
			return stats, ctx.Err()
		}
		if p.err != nil {
			return stats, p.err
		}
		for _, id := range p.ids {
			n, err := w.Write(p.payloads[id])
			stats.Bytes += int64(n)
			if err != nil {
				return stats, fmt.Errorf("write: %w", err)
			}
			stats.Chunks++
		}
		<-slots
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
