package agent

// The shared ingest scheduler: one hash-worker pool and one
// lookup-worker pool per agent, serving every concurrent ProcessStream
// call, instead of each call spawning its own HashWorkers+LookupInflight
// goroutines. Three properties the per-call design could not offer:
//
//   - Bounded CPU: total hash parallelism is HashWorkers and total
//     lookup RPC concurrency is LookupInflight no matter how many
//     streams are active. 128 streams on 8 cores contend for 8 hash
//     slots, not 1024 goroutines.
//   - Fairness: each pool drains per-stream queues round-robin — a
//     ready stream is appended to the tail of the ready list after
//     every job taken from it, so a 32 MiB stream's deep queue yields
//     one job per turn and a 4 KiB stream's single chunk is never stuck
//     behind it.
//   - Bounded memory: chunk payload bytes admitted into the pipelines
//     are capped by a FIFO byte budget (Config.ArenaBudgetBytes). The
//     chunker blocks in acquire until earlier chunks retire; grants are
//     strictly first-come, so admission inherits the same no-starvation
//     property.
//
// Per-stream ordering is untouched: each pipeline's hashOrder and
// lookupOrder FIFOs still sequence collector and router delivery, so
// manifests and Reports remain bit-identical to the sequential
// pipeline's regardless of pool sizing or stream interleaving.
//
// Worker lifecycle: pools are empty while no stream is active. attach
// tops the pools up to their configured sizes; workers exit when the
// attached-stream count returns to zero (the live counters make a
// worker still finishing its last job count against the cap, so a
// re-attach during drain never over-spawns). An agent therefore parks
// zero goroutines between streams.
//
// Draining: every queued job is eventually popped and its done token
// sent — the collector/router wait on those tokens even when aborting —
// but workers skip the actual SHA-256 / index RPC for aborted streams,
// so cancelling one stream frees its workers' time immediately. Queues
// are empty by the time a pipeline detaches (its stages have joined),
// so slots never leak jobs.

import (
	"sync"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
)

// streamSlot is one attached pipeline's seat in the scheduler: its
// pending hash and lookup jobs, and whether it currently sits on each
// ready list (a slot appears at most once per list).
type streamSlot struct {
	p      *pipeline
	hashQ  []*hashJob
	lookQ  []*lookupJob
	onHash bool
	onLook bool
}

// scheduler is the per-agent shared pool state. One mutex guards all of
// it: operations are queue pushes/pops measured in nanoseconds, while
// the work between them (SHA-256 of a chunk, an index RPC) runs
// unlocked, so contention stays negligible even at hundreds of streams.
type scheduler struct {
	mu       sync.Mutex
	hashCond *sync.Cond
	lookCond *sync.Cond

	hashWorkers int
	lookWorkers int

	streams  int // attached pipelines
	hashLive int // hash workers running or finishing a job
	lookLive int // lookup workers running or finishing a job

	hashReady []*streamSlot // round-robin ready lists
	lookReady []*streamSlot

	budget *byteBudget
	met    *agentMetrics
}

func newScheduler(hashWorkers, lookWorkers int, budget int64, met *agentMetrics) *scheduler {
	s := &scheduler{
		hashWorkers: hashWorkers,
		lookWorkers: lookWorkers,
		budget:      newByteBudget(budget, met),
		met:         met,
	}
	s.hashCond = sync.NewCond(&s.mu)
	s.lookCond = sync.NewCond(&s.mu)
	return s
}

// attach registers a pipeline and tops the worker pools up to size.
func (s *scheduler) attach(p *pipeline) *streamSlot {
	slot := &streamSlot{p: p}
	s.mu.Lock()
	s.streams++
	for s.hashLive < s.hashWorkers {
		s.hashLive++
		go s.hashLoop()
	}
	for s.lookLive < s.lookWorkers {
		s.lookLive++
		go s.lookLoop()
	}
	s.mu.Unlock()
	return slot
}

// detach unregisters a finished pipeline. Its queues are empty by the
// stage-exit chain (every queued job's done token was awaited). When the
// last stream leaves, idle workers are woken to exit.
func (s *scheduler) detach(slot *streamSlot) {
	s.mu.Lock()
	s.streams--
	if s.streams == 0 {
		s.hashCond.Broadcast()
		s.lookCond.Broadcast()
	}
	s.mu.Unlock()
	_ = slot
}

// submitHash queues one chunk for the shared hash pool. Per-stream
// backpressure is the caller's hashOrder bound; the queue here never
// exceeds it.
func (s *scheduler) submitHash(slot *streamSlot, job *hashJob) {
	s.mu.Lock()
	slot.hashQ = append(slot.hashQ, job)
	if !slot.onHash {
		slot.onHash = true
		s.hashReady = append(s.hashReady, slot)
	}
	s.mu.Unlock()
	s.hashCond.Signal()
}

// submitLookup queues one resolved-order batch for the shared lookup
// pool. Per-stream backpressure is the caller's lookupOrder bound.
func (s *scheduler) submitLookup(slot *streamSlot, job *lookupJob) {
	s.mu.Lock()
	slot.lookQ = append(slot.lookQ, job)
	if !slot.onLook {
		slot.onLook = true
		s.lookReady = append(s.lookReady, slot)
	}
	s.mu.Unlock()
	s.lookCond.Signal()
}

// nextHash pops the next (slot, job) pair round-robin; it blocks while
// streams are attached and returns false when the pool should shrink.
// Callers hold s.mu.
func (s *scheduler) nextHash() (*streamSlot, *hashJob, bool) {
	for {
		if len(s.hashReady) > 0 {
			slot := s.hashReady[0]
			s.hashReady[0] = nil
			s.hashReady = s.hashReady[1:]
			job := slot.hashQ[0]
			slot.hashQ[0] = nil
			slot.hashQ = slot.hashQ[1:]
			if len(slot.hashQ) > 0 {
				s.hashReady = append(s.hashReady, slot) // back of the line
			} else {
				slot.onHash = false
				if len(slot.hashQ) == 0 {
					slot.hashQ = nil // let the drained queue's array go
				}
			}
			return slot, job, true
		}
		if s.streams == 0 {
			return nil, nil, false
		}
		s.hashCond.Wait()
	}
}

func (s *scheduler) hashLoop() {
	s.mu.Lock()
	for {
		slot, job, ok := s.nextHash()
		if !ok {
			s.hashLive--
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		if !slot.p.aborted() {
			s.met.hashBusy.Add(1)
			job.c.ID = chunk.Sum(job.c.Data)
			s.met.hashBusy.Add(-1)
		}
		job.done <- struct{}{}
		s.mu.Lock()
	}
}

// nextLook is nextHash for the lookup pool. Callers hold s.mu.
func (s *scheduler) nextLook() (*streamSlot, *lookupJob, bool) {
	for {
		if len(s.lookReady) > 0 {
			slot := s.lookReady[0]
			s.lookReady[0] = nil
			s.lookReady = s.lookReady[1:]
			job := slot.lookQ[0]
			slot.lookQ[0] = nil
			slot.lookQ = slot.lookQ[1:]
			if len(slot.lookQ) > 0 {
				s.lookReady = append(s.lookReady, slot)
			} else {
				slot.onLook = false
				slot.lookQ = nil
			}
			return slot, job, true
		}
		if s.streams == 0 {
			return nil, nil, false
		}
		s.lookCond.Wait()
	}
}

func (s *scheduler) lookLoop() {
	s.mu.Lock()
	for {
		slot, job, ok := s.nextLook()
		if !ok {
			s.lookLive--
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		p := slot.p
		if p.aborted() {
			// The router releases the batch; resolving it would waste an
			// RPC on a stream that is already draining.
			job.known = make([]bool, len(job.batch))
		} else {
			sp := metrics.StartTimer(s.met.lookupLat)
			job.known, job.err = p.lookup(job.batch)
			sp.End()
			s.met.lookupBatch.Observe(int64(len(job.batch)))
		}
		s.met.lookupInflight.Set(p.lookupsInflight.Add(-1))
		job.done <- struct{}{}
		s.mu.Lock()
	}
}

// byteBudget admits chunk payload bytes into the pipelines. Grants are
// strict FIFO: release hands freed bytes to the oldest waiter first, so
// a stream of large chunks cannot be starved by a fast stream of small
// ones slipping in ahead of it (and vice versa).
type byteBudget struct {
	mu      sync.Mutex
	total   int64
	used    int64
	waiters []*budgetWaiter
	met     *agentMetrics
}

type budgetWaiter struct {
	n  int64
	ch chan struct{}
}

// newByteBudget returns a budget of total bytes; total <= 0 disables
// admission control (acquire and release become no-ops).
func newByteBudget(total int64, met *agentMetrics) *byteBudget {
	if total <= 0 {
		return nil
	}
	return &byteBudget{total: total, met: met}
}

// tryAcquire takes n bytes if they fit now without queueing behind an
// earlier waiter, and reports whether it did.
func (b *byteBudget) tryAcquire(n int64) bool {
	if b == nil {
		return true
	}
	n = min(n, b.total)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.waiters) > 0 || b.used+n > b.total {
		return false
	}
	b.used += n
	b.met.arenaInuse.Set(b.used)
	return true
}

// acquire blocks until n bytes fit. Requests larger than the whole
// budget are clamped — they admit alone rather than deadlock within one
// chunk; a stream never waits on bytes it parks itself because its
// chunker flushes its partial batches before it waits (pipeline.admit).
func (b *byteBudget) acquire(n int64) {
	if b == nil {
		return
	}
	n = min(n, b.total)
	b.mu.Lock()
	if len(b.waiters) == 0 && b.used+n <= b.total {
		b.used += n
		b.met.arenaInuse.Set(b.used)
		b.mu.Unlock()
		return
	}
	// Queue behind earlier waiters even if n would fit: barging would
	// starve waiting large requests behind a stream of small ones.
	w := &budgetWaiter{n: n, ch: make(chan struct{})}
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()
	<-w.ch // the releaser accounted our bytes before closing
}

// release returns n bytes and grants as many queued waiters, oldest
// first, as now fit.
func (b *byteBudget) release(n int64) {
	if b == nil {
		return
	}
	n = min(n, b.total) // mirror acquire's clamp
	b.mu.Lock()
	b.used -= n
	for len(b.waiters) > 0 && b.used+b.waiters[0].n <= b.total {
		w := b.waiters[0]
		b.waiters[0] = nil
		b.waiters = b.waiters[1:]
		b.used += w.n
		close(w.ch)
	}
	b.met.arenaInuse.Set(b.used)
	b.mu.Unlock()
}
