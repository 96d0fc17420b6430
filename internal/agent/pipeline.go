package agent

// The per-stream dedup pipeline, restructured as concurrent stages
// connected by bounded channels (cf. the pipelined/parallel fingerprinting
// designs of THR and P-Dedupe):
//
//	chunker (caller goroutine, SplitRaw / SplitRawBytes)
//	   │  hashOrder (FIFO, cap 2·HashWorkers+hashOrderSlack) + shared hash pool
//	   ▼
//	shared hash pool ×HashWorkers per agent — SHA-256 per chunk
//	   ▼  ordered delivery: collector waits each hashOrder job's done token
//	collector — manifest append, intra-stream dedup, lookup batching
//	   │  lookupOrder (FIFO, cap LookupInflight) + shared lookup pool
//	   ▼
//	shared lookup pool ×LookupInflight per agent — BatchHas (downgrade ladder)
//	   ▼  ordered delivery via lookupOrder done tokens
//	router — duplicate suppression, upload batching
//	   │  uploads (cap 4 full batches)        │  tail: the last, partial batch
//	   ▼                                      ▼
//	uploader — BatchUpload of full batches    finish — after the uploader joins:
//	                                          Commit(tail + manifest)
//	both: acknowledged accounting, ring index registration
//
// The router keeps the tail batch back; finish owns it once the router
// has exited and ships it in the same round trip as the manifest, so a
// stream whose fresh chunks fit one batch costs one cloud RPC.
//
// The hash and lookup stages are served by the agent's shared scheduler
// (scheduler.go): the pools are sized once per agent and drained
// round-robin across every active stream, so N concurrent ProcessStream
// calls share HashWorkers + LookupInflight workers instead of spawning
// N× that many goroutines.
//
// Ordering guarantee: the collector and router consume their stages'
// output strictly in stream order (jobs enter the FIFO channel before
// the shared pool's queue and carry a done token), so the manifest, the
// seen-map decisions, upload batch composition and Report counters are
// identical to the sequential pipeline's, bit for bit, for any
// HashWorkers and LookupInflight and any stream interleaving — only
// wall-clock overlap changes.
//
// Memory bound: chunk payloads live in the chunk-buffer arena and are
// released exactly once — by the collector (intra-stream duplicate), the
// router (index-known duplicate), the uploader (after the cloud acked or
// failed the batch), finish (the tail, after the commit was acked or
// failed, or unsent because the stream failed), or a draining stage after
// a fatal error. Per-stream in-flight payloads are capped by the channel
// bounds:
//
//	inflight chunks ≤ (2·HashWorkers+hashOrderSlack) + 1  — hash stage
//	                + (LookupInflight+1)·LookupBatch       — lookup stage
//	                + (uploadQueueDepth+2)·UploadBatch     — upload stage
//
// each at most one max-size chunk — and the agent-wide total is capped
// in bytes by Config.ArenaBudgetBytes: every payload's capacity is
// acquired from the scheduler's byte budget before it enters hashOrder
// and released with the payload, so aggregate pipeline memory stays
// bounded no matter how many streams are admitted. A chunker that has to
// wait for bytes first flushes its stream's partial batches (admit), so
// no stream waits on bytes it parks itself.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/kvstore"
	"efdedup/internal/metrics"
)

// uploadQueueDepth is the upload channel's batch capacity (the +2 in the
// memory bound: one batch accumulating in the router, one in the
// uploader's hands).
const uploadQueueDepth = 4

// hashOrderSlack is extra hashOrder buffering beyond the hash workers'
// own queue. It lets the chunker and the collector run in long bursts
// instead of lockstep per-chunk handoffs — on machines where GOMAXPROCS
// exceeds the physical cores, every handoff that blocks is a thread
// switch, and a shallow FIFO was measurably the bottleneck.
const hashOrderSlack = 62

// hashJob carries one chunk from the chunker through a hash worker to
// the ordered collector. done is buffered (capacity 1) and receives one
// token when the ID is computed; jobs recycle through hashJobPool with
// their done channel intact.
type hashJob struct {
	c    chunk.Chunk
	done chan struct{}
	// flush marks an in-band marker that carries no chunk (see admit).
	flush bool
}

var hashJobPool = sync.Pool{New: func() any { return &hashJob{done: make(chan struct{}, 1)} }}

// lookupJob carries one lookup batch from the collector through a lookup
// worker to the ordered router.
type lookupJob struct {
	batch []chunk.Chunk
	known []bool
	err   error
	done  chan struct{}
	// flush asks the router to queue its partial upload batch once it
	// has routed this one.
	flush bool
}

var lookupJobPool = sync.Pool{New: func() any { return &lookupJob{done: make(chan struct{}, 1)} }}

// release returns a chunk payload to the chunk-buffer arena and credits
// its bytes back to the agent's admission budget. Safe for payloads
// that did not come from the arena (legacy Split chunkers hand out
// fresh slices we own by contract, SplitRawBytes hands out aliases the
// arena refuses); the budget charge is symmetric with admission either
// way. Each payload is released exactly once (see the memory bound
// above), so the credit cannot double-count.
func (p *pipeline) release(c chunk.Chunk) {
	chunk.Raw{Data: c.Data}.Release()
	p.a.sched.budget.release(int64(cap(c.Data)))
}

// pipeline is one stream's staged state machine. The fields below are
// partitioned by owning stage; cross-stage values are atomic and folded
// into rep by finish(), which runs after every stage has exited.
type pipeline struct {
	a   *Agent
	ctx context.Context

	// Collector-owned (read by finish after the stage-exit chain).
	rep        Report
	manifest   []chunk.ID
	seen       map[chunk.ID]bool
	cur        *lookupJob
	lastArrive time.Time

	// Cross-stage counters.
	dupChunks       atomic.Int64
	degradedLookups atomic.Int64
	downgrades      atomic.Int64
	recoveries      atomic.Int64
	lookupsInflight atomic.Int64

	// slot is this stream's seat in the agent's shared scheduler.
	slot *streamSlot

	// inlineHash short-circuits the hash stage when the pool has exactly
	// one worker: the chunker hashes in place, skipping two handoffs per
	// chunk that buy no parallelism. (With concurrent streams this hashes
	// on each stream's own goroutine — the degenerate one-worker budget
	// is per-stream, which only matters on a one-core box.)
	inlineHash bool

	// stop is closed at the first fatal error: the chunker aborts and
	// the downstream stages drain, releasing payloads unprocessed.
	stop     chan struct{}
	stopOnce sync.Once
	fatalMu  sync.Mutex
	fatalErr error

	hashOrder   chan *hashJob
	lookupOrder chan *lookupJob

	// Stage-exit joins: closed when the collector / router goroutine
	// returns. finish waits on both — the uploadErr buffer alone is not
	// a join point, because a failing uploader reports its error before
	// the upstream stages have drained.
	collectDone chan struct{}
	routeDone   chan struct{}

	// Router-owned.
	pendingUpload []chunk.Chunk

	uploads   chan []chunk.Chunk
	uploadErr chan error

	// Written by the uploader goroutine, read by finish() after the
	// uploader exits: only chunks the cloud acknowledged are counted, so
	// Report.Uploaded* matches the store's contents even when a stream
	// aborts mid-upload.
	uploadedChunks atomic.Int64
	uploadedBytes  atomic.Int64

	indexWG          sync.WaitGroup
	indexMu          sync.Mutex
	indexErr         error
	indexSem         chan struct{}
	indexInsertFails atomic.Int64
}

func (a *Agent) newPipeline(ctx context.Context, name string) *pipeline {
	hw := a.cfg.HashWorkers
	li := a.cfg.LookupInflight
	p := &pipeline{
		a:           a,
		ctx:         ctx,
		rep:         Report{Name: name},
		seen:        make(map[chunk.ID]bool),
		lastArrive:  time.Now(),
		stop:        make(chan struct{}),
		hashOrder:   make(chan *hashJob, 2*hw+hashOrderSlack),
		lookupOrder: make(chan *lookupJob, li),
		collectDone: make(chan struct{}),
		routeDone:   make(chan struct{}),
		uploads:     make(chan []chunk.Chunk, uploadQueueDepth),
		uploadErr:   make(chan error, 1),
		indexSem:    make(chan struct{}, 4),
	}
	p.inlineHash = hw == 1
	// Hash and lookup work go to the agent's shared pools; only the
	// stream-ordered stage drivers are per-pipeline goroutines.
	p.slot = a.sched.attach(p)
	go p.collect()
	go p.route()
	go p.upload()
	return p
}

// fail records the first fatal error and flips the pipeline into drain
// mode.
func (p *pipeline) fail(err error) {
	p.fatalMu.Lock()
	if p.fatalErr == nil {
		p.fatalErr = err
	}
	p.fatalMu.Unlock()
	p.stopOnce.Do(func() { close(p.stop) })
}

func (p *pipeline) fatal() error {
	p.fatalMu.Lock()
	defer p.fatalMu.Unlock()
	return p.fatalErr
}

func (p *pipeline) aborted() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// run drives the chunker. RawChunkers feed the hash pool unhashed
// pooled payloads; legacy Chunkers arrive pre-hashed and skip the hash
// stage (their jobs enter the FIFO with the done token pre-filled).
func (p *pipeline) run(r io.Reader) error {
	if rc, ok := p.a.cfg.Chunker.(chunk.RawChunker); ok {
		return rc.SplitRaw(r, p.addRaw)
	}
	return p.a.cfg.Chunker.Split(r, p.addHashed)
}

// runBytes drives the chunker over an in-memory stream, using the
// zero-copy scanner when the chunker offers one (payloads then alias
// data, which outlives the pipeline — ProcessBytes holds it until
// finish has joined every stage).
func (p *pipeline) runBytes(data []byte) error {
	if bc, ok := p.a.cfg.Chunker.(chunk.RawBytesChunker); ok {
		return bc.SplitRawBytes(data, p.addRaw)
	}
	return p.run(bytes.NewReader(data))
}

// addRaw receives one unhashed chunk from the chunker, in stream order.
// Ownership of the payload transfers to the hash stage. The payload's
// bytes are admitted against the agent-wide budget here — before the
// FIFO — so a stream blocked on admission holds no pipeline slots.
func (p *pipeline) addRaw(raw chunk.Raw) error {
	if p.aborted() {
		raw.Release()
		return p.fatal()
	}
	p.admit(int64(cap(raw.Data)))
	job := hashJobPool.Get().(*hashJob)
	job.c = chunk.Chunk{Offset: raw.Offset, Data: raw.Data}
	if p.inlineHash {
		job.c.ID = chunk.Sum(job.c.Data)
		job.done <- struct{}{}
		p.hashOrder <- job
		return nil
	}
	// FIFO first: the collector must see jobs in stream order, and the
	// order channel's bound is what caps this stream's in-flight chunks.
	p.hashOrder <- job
	p.a.sched.submitHash(p.slot, job)
	return nil
}

// admit takes n payload bytes from the agent-wide budget. The collector
// and the router park partial batches until later chunks of the stream
// fill them, so a chunker that waited while its own stream parked the
// bytes it waits for would wait for good. Before it waits, it sends an
// in-band flush marker down hashOrder: the collector dispatches its
// partial lookup batch and the router queues its partial upload batch,
// which the uploader releases once the cloud acks. Batches shrink only
// while the budget is short; stream order is unchanged.
func (p *pipeline) admit(n int64) {
	if p.a.sched.budget.tryAcquire(n) {
		return
	}
	marker := hashJobPool.Get().(*hashJob)
	marker.flush = true
	marker.done <- struct{}{}
	p.hashOrder <- marker
	p.a.sched.budget.acquire(n)
}

// addHashed receives one pre-hashed chunk from a legacy Chunker.
func (p *pipeline) addHashed(c chunk.Chunk) error {
	if p.aborted() {
		return p.fatal()
	}
	p.admit(int64(cap(c.Data)))
	job := hashJobPool.Get().(*hashJob)
	job.c = c
	job.done <- struct{}{}
	p.hashOrder <- job
	return nil
}

// collect consumes hashed chunks in stream order: manifest append,
// intra-stream duplicate suppression, lookup batching. It owns the
// lookup stage's input channels and closes them on the way out.
func (p *pipeline) collect() {
	defer close(p.collectDone)
	for job := range p.hashOrder {
		<-job.done
		c, flush := job.c, job.flush
		job.c, job.flush = chunk.Chunk{}, false
		hashJobPool.Put(job)
		if flush {
			p.flushLookup()
			continue
		}

		p.a.met.chunkProduce.ObserveDuration(time.Since(p.lastArrive))
		p.lastArrive = time.Now()
		p.a.met.chunkBytes.Observe(int64(len(c.Data)))

		p.manifest = append(p.manifest, c.ID)
		p.rep.InputBytes += int64(len(c.Data))
		p.rep.InputChunks++
		if p.aborted() {
			p.release(c)
			continue
		}
		if p.seen[c.ID] {
			p.dupChunks.Add(1)
			p.a.met.dupChunks.Inc()
			p.release(c)
			continue
		}
		p.seen[c.ID] = true
		if p.cur == nil {
			p.cur = lookupJobPool.Get().(*lookupJob)
		}
		p.cur.batch = append(p.cur.batch, c)
		if len(p.cur.batch) >= p.a.cfg.LookupBatch {
			p.dispatchLookup()
		}
	}
	if !p.aborted() {
		p.dispatchLookup() // partial tail batch
	} else if p.cur != nil {
		p.releaseAll(p.cur.batch)
		putLookupJob(p.cur)
		p.cur = nil
	}
	close(p.lookupOrder)
}

// dispatchLookup hands the accumulating batch to the shared lookup
// pool, keeping at most LookupInflight of this stream's batches in
// flight (the order channel's capacity provides the backpressure).
func (p *pipeline) dispatchLookup() {
	job := p.cur
	if job == nil || len(job.batch) == 0 {
		return
	}
	p.cur = nil
	n := p.lookupsInflight.Add(1)
	p.a.met.lookupInflight.Set(n)
	p.a.met.lookupInflightHist.Observe(n)
	p.lookupOrder <- job
	p.a.sched.submitLookup(p.slot, job)
}

// flushLookup dispatches the partial batch marked as a flush, or, with
// nothing to look up, passes a bare marker straight to the router.
func (p *pipeline) flushLookup() {
	if p.cur != nil {
		p.cur.flush = true
		p.dispatchLookup()
		return
	}
	marker := lookupJobPool.Get().(*lookupJob)
	marker.flush = true
	marker.done <- struct{}{}
	p.lookupOrder <- marker
}

func putLookupJob(job *lookupJob) {
	job.batch = job.batch[:0]
	job.known = nil
	job.err = nil
	job.flush = false
	lookupJobPool.Put(job)
}

// route consumes resolved batches in stream order, suppresses
// index-known duplicates and feeds the uploader full batches. It owns the
// uploads channel and closes it on the way out. The partial tail batch
// stays in pendingUpload, unless a flush marker queues it early: finish
// commits it with the manifest, or releases it if the stream failed.
func (p *pipeline) route() {
	defer close(p.routeDone)
	for job := range p.lookupOrder {
		<-job.done
		switch {
		case job.err != nil:
			p.fail(job.err)
			fallthrough
		case p.aborted():
			p.releaseAll(job.batch)
		default:
			for i, c := range job.batch {
				if job.known[i] {
					p.dupChunks.Add(1)
					p.a.met.dupChunks.Inc()
					p.release(c)
					continue
				}
				p.pendingUpload = append(p.pendingUpload, c)
				if len(p.pendingUpload) >= p.a.cfg.UploadBatch {
					p.queueUpload()
				}
			}
		}
		if job.flush {
			if p.aborted() {
				p.releaseAll(p.pendingUpload)
				p.pendingUpload = p.pendingUpload[:0]
			}
			p.queueUpload()
		}
		putLookupJob(job)
	}
	close(p.uploads)
}

// releaseAll returns a batch's payloads to the arena.
func (p *pipeline) releaseAll(batch []chunk.Chunk) {
	for _, c := range batch {
		p.release(c)
	}
}

// queueUpload hands the pending chunks to the asynchronous uploader.
// Upload accounting happens in the uploader itself, on acknowledgement —
// counting here would credit chunks that a failed or aborted upload
// never delivered, so Report could claim more than the cloud held.
func (p *pipeline) queueUpload() {
	if len(p.pendingUpload) == 0 {
		return
	}
	batch := make([]chunk.Chunk, len(p.pendingUpload))
	copy(batch, p.pendingUpload)
	p.a.met.uploadQueue.Add(1)
	p.uploads <- batch
	p.pendingUpload = p.pendingUpload[:0]
}

// upload ships full batches to the cloud. A batch's chunks are counted
// and its hashes registered in the ring index only after the cloud
// acknowledges it; payloads return to the arena either way.
func (p *pipeline) upload() {
	defer close(p.uploadErr)
	for batch := range p.uploads {
		p.a.met.uploadQueue.Add(-1)
		sp := metrics.StartTimer(p.a.met.uploadLat)
		_, err := p.a.cfg.Cloud.BatchUpload(p.ctx, batch)
		sp.End()
		if err != nil {
			p.releaseAll(batch)
			p.uploadErr <- fmt.Errorf("agent: upload batch: %w", err)
			// Drain remaining batches so the producer never blocks.
			// Dropped batches are deliberately not counted: they never
			// reached the cloud.
			for batch := range p.uploads {
				p.a.met.uploadQueue.Add(-1)
				p.releaseAll(batch)
			}
			return
		}
		p.acked(batch)
	}
}

// commit ends the stream in one cloud round trip: the tail batch the
// router held back and the manifest. The tail is accounted like an
// uploaded batch, and only on the cloud's ack.
func (p *pipeline) commit(tail []chunk.Chunk) error {
	sp := metrics.StartTimer(p.a.met.manifestLat)
	_, err := p.a.cfg.Cloud.Commit(p.ctx, p.rep.Name, p.manifest, tail)
	sp.End()
	if err != nil {
		p.releaseAll(tail)
		return fmt.Errorf("agent: commit %s: %w", p.rep.Name, err)
	}
	p.acked(tail)
	return nil
}

// acked accounts a batch the cloud acknowledged: its chunks count as
// uploaded, its payloads return to the arena, and its hashes go on to the
// ring index.
func (p *pipeline) acked(batch []chunk.Chunk) {
	if len(batch) == 0 {
		return
	}
	var batchBytes int64
	for _, c := range batch {
		batchBytes += int64(len(c.Data))
	}
	p.uploadedChunks.Add(int64(len(batch)))
	p.uploadedBytes.Add(batchBytes)
	p.a.met.uploadedChunks.Add(int64(len(batch)))
	p.a.met.uploadedBytes.Add(batchBytes)
	p.a.met.uploadBatch.Observe(int64(len(batch)))
	// Payloads are dead once the cloud acked the batch; only the content
	// IDs flow on to the ring index.
	p.releaseAll(batch)
	// Only now — with the batch durable in the cloud — are its hashes
	// registered in the ring index. Registering at lookup time could
	// advertise chunks that a mid-stream abort never uploaded, making
	// peers skip uploads for data the cloud does not hold.
	if p.a.cfg.Mode == ModeRing {
		p.registerFresh(batch)
	}
}

// registerFresh records the batch's hashes in the ring index, off the
// critical path (our own later batches are covered by the local seen
// set). Called from the uploader goroutine strictly after the batch was
// acknowledged by the cloud, preserving the invariant that the index
// never references a chunk the cloud lacks.
func (p *pipeline) registerFresh(batch []chunk.Chunk) {
	keys := make([][]byte, len(batch))
	values := make([][]byte, len(batch))
	// One owner-name conversion for the whole batch: BatchPut encodes
	// values into the wire body without retaining or mutating them, so
	// every entry can share the same backing bytes (hotalloc).
	owner := []byte(p.a.cfg.Name)
	for i, c := range batch {
		id := c.ID
		keys[i] = id[:]
		values[i] = owner
	}
	p.indexSem <- struct{}{}
	p.indexWG.Add(1)
	go func() {
		defer p.indexWG.Done()
		defer func() { <-p.indexSem }()
		sp := metrics.StartTimer(p.a.met.insertLat)
		err := p.a.cfg.Index.BatchPut(p.ctx, keys, values)
		sp.End()
		if err == nil {
			return
		}
		// A missed insert only costs future dedup hits (peers re-upload
		// those chunks), so in degraded-tolerant mode it is counted, not
		// fatal. Cancellation stays fatal so aborted streams abort.
		if p.a.cfg.StrictRing || p.ctx.Err() != nil {
			p.indexMu.Lock()
			if p.indexErr == nil {
				p.indexErr = fmt.Errorf("agent: index insert: %w", err)
			}
			p.indexMu.Unlock()
			return
		}
		// A partial write names exactly the under-replicated keys; only
		// those count as failures. Anything else loses the whole batch.
		failed := int64(len(keys))
		var partial *kvstore.PartialWriteError
		if errors.As(err, &partial) {
			failed = int64(len(partial.FailedKeys))
		}
		p.indexInsertFails.Add(failed)
		p.a.met.insertFails.Add(failed)
	}()
}

// finish joins the stage-exit chain, commits the stream and reports the
// first error among the stream error, fatal stage errors, upload
// failures, the commit and index failures. The chain — chunker done →
// hash stage closed → collector exits (closing the lookup stage) → router
// exits (closing uploads) → uploader exits (closing uploadErr) — also
// sequences the memory model: every stage's writes happen before finish
// reads them.
//
// The commit waits for the uploader, so every full batch is acked before
// the manifest names its chunks, and an aborted stream leaves no
// manifest. It runs before the index join: the last full batch's ring
// insert overlaps the commit's WAN round trip.
func (p *pipeline) finish(streamErr error) (Report, error) {
	if streamErr != nil {
		p.fail(streamErr)
	}
	close(p.hashOrder)
	<-p.collectDone
	<-p.routeDone
	uploadFailure := <-p.uploadErr
	var commitFailure error
	if tail := p.pendingUpload; p.fatal() == nil && uploadFailure == nil {
		commitFailure = p.commit(tail)
	} else {
		p.releaseAll(tail)
	}
	p.indexWG.Wait()
	// Stages have joined, so every submitted job was popped and answered
	// (the collector/router awaited each done token): the slot's queues
	// are empty and the seat can be returned.
	p.a.sched.detach(p.slot)
	p.rep.DuplicateChunks = p.dupChunks.Load()
	p.rep.UploadedChunks = p.uploadedChunks.Load()
	p.rep.UploadedBytes = p.uploadedBytes.Load()
	p.rep.Downgrades = p.downgrades.Load()
	p.rep.Recoveries = p.recoveries.Load()
	p.rep.DegradedLookups = p.degradedLookups.Load()
	p.rep.IndexInsertFailures = p.indexInsertFails.Load()
	p.indexMu.Lock()
	indexFailure := p.indexErr
	p.indexMu.Unlock()
	switch {
	case streamErr != nil:
		return p.rep, streamErr
	case p.fatal() != nil:
		// A stage failed (e.g. a lookup batch) after the chunker had
		// already finished, so no stream error carried it here.
		return p.rep, p.fatal()
	case uploadFailure != nil:
		return p.rep, uploadFailure
	case commitFailure != nil:
		return p.rep, commitFailure
	case indexFailure != nil:
		return p.rep, indexFailure
	}
	return p.rep, nil
}

// lookup answers which chunks in the batch are already indexed.
//
// In ModeRing (without StrictRing) it walks a downgrade ladder instead of
// failing the stream: ring index → cloud-assisted lookup → assume-fresh.
// Every rung preserves correctness — a chunk wrongly treated as fresh is
// re-deduplicated by the cloud's own index on upload — so ring outages
// cost WAN bytes, never data. The ring is still tried first on every
// batch: while its breakers are open those attempts fail fast, and the
// first one that succeeds after an outage is the recovery transition.
// Called concurrently by up to LookupInflight workers; all accounting is
// atomic.
func (p *pipeline) lookup(batch []chunk.Chunk) ([]bool, error) {
	a := p.a
	switch a.cfg.Mode {
	case ModeRing:
		keys := make([][]byte, len(batch))
		for i := range batch {
			id := batch[i].ID
			keys[i] = id[:]
		}
		known, err := a.cfg.Index.BatchHas(p.ctx, keys)
		if err == nil {
			if a.noteRecovery() {
				p.recoveries.Add(1)
				a.met.recoveries.Inc()
			}
			return known, nil
		}
		if p.ctx.Err() != nil || a.cfg.StrictRing {
			return nil, fmt.Errorf("agent: ring lookup: %w", err)
		}
		if a.noteDowngrade() {
			p.downgrades.Add(1)
			a.met.downgrades.Inc()
		}
		p.degradedLookups.Add(int64(len(batch)))
		a.met.degradedLookups.Add(int64(len(batch)))
		fallthrough
	case ModeCloudAssisted:
		ids := make([]chunk.ID, len(batch))
		for i := range batch {
			ids[i] = batch[i].ID
		}
		known, err := a.cfg.Cloud.BatchHas(p.ctx, ids)
		if err == nil {
			return known, nil
		}
		if a.cfg.Mode == ModeCloudAssisted {
			// The cloud is this mode's only index; nothing to fall back to
			// but the uploader, which needs the same cloud anyway.
			return nil, fmt.Errorf("agent: cloud lookup: %w", err)
		}
		if p.ctx.Err() != nil {
			return nil, fmt.Errorf("agent: cloud lookup: %w", err)
		}
		// Bottom rung: assume every chunk fresh and let the cloud's own
		// index dedup on upload (ModeCloudOnly semantics per batch).
		return make([]bool, len(batch)), nil
	default:
		return nil, fmt.Errorf("%w: lookup in mode %s", ErrConfig, a.cfg.Mode)
	}
}
