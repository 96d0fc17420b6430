// Package agent implements the EF-dedup Dedup Agent (paper Sec. IV): the
// per-edge-node pipeline that splits incoming data into chunks, hashes
// them, consults a deduplication index, and ships only unique chunks to
// the central cloud.
//
// The agent runs in one of three modes, matching the paper's comparison:
//
//   - ModeRing (EF-dedup/SMART): the index is the D2-ring's distributed
//     KV store; lookups mostly stay inside the edge; unique chunks are
//     uploaded to the cloud.
//   - ModeCloudAssisted: no edge index; chunk hashes are probed against
//     the cloud's global index over the WAN, and misses are uploaded.
//   - ModeCloudOnly: raw data is shipped to the cloud unmodified; the
//     cloud chunks and deduplicates server-side.
package agent

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/metrics"
)

// ErrConfig marks invalid agent assembly or a call that is illegal in the
// configured dedup mode: caller mistakes, never transient.
var ErrConfig = errors.New("agent: invalid configuration")

// Mode selects the deduplication strategy.
type Mode int

// Operating modes.
const (
	ModeRing Mode = iota + 1
	ModeCloudAssisted
	ModeCloudOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeRing:
		return "ring"
	case ModeCloudAssisted:
		return "cloud-assisted"
	case ModeCloudOnly:
		return "cloud-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Default pipeline batch sizes. Lookups are batched but still issued as
// chunks are produced, so index latency stays on the critical path (the
// effect Fig. 5(b) measures). Uploads batch more aggressively since they
// are bandwidth- rather than latency-bound.
const (
	DefaultLookupBatch = 32
	DefaultUploadBatch = 64
)

// DefaultLookupInflight is the default number of overlapped index-lookup
// batches. Edge index lookups are latency- rather than bandwidth-bound,
// so a small window hides most of the RPC round trip without reordering
// risk (delivery stays ordered regardless; see pipeline.go).
const DefaultLookupInflight = 4

// DefaultMaxStreams is the default cap on concurrent ProcessStream
// calls per agent; calls beyond it queue FIFO at admission. An edge
// node fronts many clients, but each admitted stream pins pipeline
// channels and a collector/router/uploader trio, so admission — not
// goroutine count — is the knob that bounds per-node footprint.
const DefaultMaxStreams = 64

// DefaultArenaBudget is the default agent-wide cap on chunk payload
// bytes resident in pipelines (see Config.ArenaBudgetBytes): enough to
// keep every default-sized pool busy, small enough that a burst of
// streams backpressures chunkers instead of growing RSS.
const DefaultArenaBudget = 256 << 20

// Config assembles an agent.
type Config struct {
	// Name identifies the agent (used in manifests).
	Name string
	// Mode selects the strategy; required.
	Mode Mode
	// Chunker splits input; defaults to an 8 KiB fixed chunker.
	Chunker chunk.Chunker
	// Index is the D2-ring index; required in ModeRing.
	Index *kvstore.Cluster
	// Cloud is the central store client; required in every mode.
	Cloud *cloudstore.Client
	// LookupBatch is the number of chunk hashes per index lookup RPC.
	LookupBatch int
	// UploadBatch is the number of chunks per cloud upload RPC.
	UploadBatch int
	// HashWorkers is the number of concurrent SHA-256 workers hashing
	// chunks behind the chunker. Defaults to GOMAXPROCS. Results are
	// delivered in stream order, so the manifest and Report are
	// identical for any worker count.
	HashWorkers int
	// LookupInflight is how many index-lookup batches may be in flight
	// at once before the pipeline backpressures the chunker. Defaults
	// to DefaultLookupInflight. Like HashWorkers, it changes overlap,
	// never results.
	LookupInflight int
	// StrictRing disables graceful degradation in ModeRing: ring index
	// failures abort the stream instead of downgrading to cloud-assisted
	// lookups. By default a ring outage costs dedup efficiency, never the
	// backup — the cloud re-deduplicates whatever the edge over-sends.
	StrictRing bool
	// MaxStreams caps concurrent ProcessStream calls; excess callers
	// block FIFO at admission (agent_stream_admission_wait_seconds
	// observes the wait). Defaults to DefaultMaxStreams; negative means
	// unlimited.
	MaxStreams int
	// ArenaBudgetBytes caps the chunk payload bytes resident across all
	// of the agent's pipelines: each chunk's capacity is acquired before
	// it enters the pipeline and credited back when the payload retires,
	// so aggregate ingest memory is bounded regardless of stream count.
	// Defaults to DefaultArenaBudget; negative disables the budget.
	ArenaBudgetBytes int64
}

// Report summarizes one processed stream.
type Report struct {
	// Name of the stream.
	Name string
	// InputBytes and InputChunks describe the pre-dedup stream.
	InputBytes  int64
	InputChunks int64
	// DuplicateChunks were suppressed at the edge (or, for cloud-only,
	// by the cloud).
	DuplicateChunks int64
	// UploadedChunks/UploadedBytes is what crossed the WAN as chunk
	// payloads. Cloud-only mode uploads all InputBytes.
	UploadedChunks int64
	UploadedBytes  int64
	// Duration is wall-clock processing time.
	Duration time.Duration

	// Degradation telemetry (ModeRing only). Downgrades counts ring →
	// cloud-assisted transitions, Recoveries the reverse. DegradedLookups
	// is how many chunk lookups were answered without the ring index.
	// IndexInsertFailures counts fresh hashes the ring refused to record
	// (peers will re-upload those chunks; correctness is unaffected).
	Downgrades          int64
	Recoveries          int64
	DegradedLookups     int64
	IndexInsertFailures int64
}

// Throughput returns the client-observed dedup throughput in bytes/second
// (the paper's "amount of input data deduplicated within a timeframe").
func (r Report) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.InputBytes) / r.Duration.Seconds()
}

// DedupRatio returns input bytes over uploaded bytes (∞-safe: returns 1
// for empty input, and input/1 when nothing was uploaded).
func (r Report) DedupRatio() float64 {
	if r.InputBytes == 0 {
		return 1
	}
	if r.UploadedBytes == 0 {
		return float64(r.InputBytes)
	}
	return float64(r.InputBytes) / float64(r.UploadedBytes)
}

// Agent is a single edge node's dedup pipeline. Safe for concurrent
// use: any number of goroutines may call ProcessStream/ProcessBytes on
// one agent — MaxStreams are admitted at a time, and all admitted
// streams share the agent's scheduler pools and arena byte budget.
type Agent struct {
	cfg Config
	met *agentMetrics

	// sched is the shared ingest scheduler: hash/lookup worker pools and
	// the arena byte budget, serving every concurrent stream.
	sched *scheduler
	// streamSem is the MaxStreams admission semaphore (nil = unlimited).
	// Blocked senders on a channel are served FIFO, so admission order
	// is arrival order.
	streamSem chan struct{}

	// activeStreams backs the agent_streams_active gauge: admitted
	// streams currently processing (all modes, cloud-only included).
	activeStreams atomic.Int64

	totalMu sync.Mutex
	total   Report // cumulative across streams

	mu       sync.Mutex
	degraded bool // ring lookups currently downgraded
}

// New validates cfg and returns an agent.
func New(cfg Config) (*Agent, error) {
	switch cfg.Mode {
	case ModeRing:
		if cfg.Index == nil {
			return nil, fmt.Errorf("%w: ring mode needs an index cluster", ErrConfig)
		}
	case ModeCloudAssisted, ModeCloudOnly:
	default:
		return nil, fmt.Errorf("%w: unknown mode %d", ErrConfig, int(cfg.Mode))
	}
	if cfg.Cloud == nil {
		return nil, fmt.Errorf("%w: cloud client required", ErrConfig)
	}
	if cfg.Chunker == nil {
		fc, err := chunk.NewFixedChunker(chunk.DefaultFixedSize)
		if err != nil {
			return nil, err
		}
		cfg.Chunker = fc
	}
	if cfg.LookupBatch <= 0 {
		cfg.LookupBatch = DefaultLookupBatch
	}
	if cfg.UploadBatch <= 0 {
		cfg.UploadBatch = DefaultUploadBatch
	}
	if cfg.HashWorkers <= 0 {
		// Workers beyond the physical cores only add scheduler churn
		// (SHA-256 is pure CPU), so cap the default at both limits.
		cfg.HashWorkers = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if cfg.LookupInflight <= 0 {
		cfg.LookupInflight = DefaultLookupInflight
	}
	if cfg.MaxStreams == 0 {
		cfg.MaxStreams = DefaultMaxStreams
	}
	if cfg.ArenaBudgetBytes == 0 {
		cfg.ArenaBudgetBytes = DefaultArenaBudget
	}
	a := &Agent{cfg: cfg, met: newAgentMetrics(cfg.Mode)}
	a.sched = newScheduler(cfg.HashWorkers, cfg.LookupInflight, cfg.ArenaBudgetBytes, a.met)
	if cfg.MaxStreams > 0 {
		a.streamSem = make(chan struct{}, cfg.MaxStreams)
	}
	gaugeName := cfg.Name
	if gaugeName == "" {
		gaugeName = cfg.Mode.String()
	}
	metrics.Default().GaugeFunc("agent_degraded", func() float64 {
		if a.Degraded() {
			return 1
		}
		return 0
	}, "agent", gaugeName)
	return a, nil
}

// Mode returns the agent's operating mode.
func (a *Agent) Mode() Mode { return a.cfg.Mode }

// Degraded reports whether ring lookups are currently downgraded to the
// cloud-assisted path.
func (a *Agent) Degraded() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.degraded
}

// noteDowngrade flips the agent into degraded mode, reporting whether
// this call was the transition.
func (a *Agent) noteDowngrade() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	was := a.degraded
	a.degraded = true
	return !was
}

// noteRecovery flips the agent back to ring lookups, reporting whether
// this call was the transition.
func (a *Agent) noteRecovery() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	was := a.degraded
	a.degraded = false
	return was
}

// Totals returns cumulative counters across all processed streams.
func (a *Agent) Totals() Report {
	a.totalMu.Lock()
	defer a.totalMu.Unlock()
	return a.total
}

// admit claims a MaxStreams seat, blocking FIFO behind earlier callers.
// The wait — near zero while seats are free — is observed into the
// admission histogram so saturation shows up as a latency shift there
// before it shows up in stream latency.
func (a *Agent) admit(ctx context.Context) error {
	if a.streamSem != nil {
		sp := metrics.StartTimer(a.met.admissionWait)
		select {
		case a.streamSem <- struct{}{}:
		case <-ctx.Done():
			sp.End()
			return fmt.Errorf("agent: stream admission: %w", ctx.Err())
		}
		sp.End()
	}
	a.met.streamsActive.Set(a.activeStreams.Add(1))
	return nil
}

// leave returns an admitted stream's seat.
func (a *Agent) leave() {
	a.met.streamsActive.Set(a.activeStreams.Add(-1))
	if a.streamSem != nil {
		<-a.streamSem
	}
}

// ProcessBytes deduplicates an in-memory stream. It follows ProcessStream's
// contract, but when the chunker supports zero-copy scanning
// (chunk.RawBytesChunker) the pipeline works directly on data — no read
// copy, no arena copy — which is the fastest ingest path.
func (a *Agent) ProcessBytes(ctx context.Context, name string, data []byte) (Report, error) {
	start := time.Now()
	if err := a.admit(ctx); err != nil {
		return Report{}, err
	}
	defer a.leave()
	if a.cfg.Mode == ModeCloudOnly {
		return a.rawUpload(ctx, name, data, start)
	}
	p := a.newPipeline(ctx, name)
	return a.finishStream(p, p.runBytes(data), start)
}

// ProcessStream deduplicates r under the agent's mode, records a manifest
// named after the stream and returns per-stream statistics. In ring and
// cloud-assisted mode the stream is processed incrementally: memory stays
// bounded by the in-flight lookup and upload batches regardless of stream
// size. Cloud-only mode buffers the stream (it is shipped in one raw
// upload, mirroring the paper's strategy of sending data unmodified).
//
// Any number of goroutines may call ProcessStream concurrently: up to
// Config.MaxStreams are admitted at once and share the agent's hash and
// lookup pools round-robin under the arena byte budget, so adding
// streams raises utilization, not footprint.
func (a *Agent) ProcessStream(ctx context.Context, name string, r io.Reader) (Report, error) {
	start := time.Now()
	if err := a.admit(ctx); err != nil {
		return Report{}, err
	}
	defer a.leave()

	if a.cfg.Mode == ModeCloudOnly {
		data, err := io.ReadAll(r)
		if err != nil {
			return Report{}, fmt.Errorf("agent: read stream %s: %w", name, err)
		}
		return a.rawUpload(ctx, name, data, start)
	}

	p := a.newPipeline(ctx, name)
	return a.finishStream(p, p.run(r), start)
}

// rawUpload ships one buffered stream unmodified (ModeCloudOnly).
func (a *Agent) rawUpload(ctx context.Context, name string, data []byte, start time.Time) (Report, error) {
	rep := Report{Name: name}
	sp := metrics.StartTimer(a.met.uploadLat)
	stored, err := a.cfg.Cloud.UploadRaw(ctx, name, data)
	sp.End()
	if err != nil {
		return rep, fmt.Errorf("agent: raw upload %s: %w", name, err)
	}
	rep.InputBytes = int64(len(data))
	rep.UploadedBytes = int64(len(data)) // all bytes cross the WAN
	rep.UploadedChunks = int64(stored)
	rep.Duration = time.Since(start)
	a.met.uploadedChunks.Add(rep.UploadedChunks)
	a.met.uploadedBytes.Add(rep.UploadedBytes)
	a.met.streamLat.ObserveDuration(rep.Duration)
	a.accumulate(rep)
	return rep, nil
}

// finishStream joins and commits the pipeline. The manifest goes out
// only with, or after, every chunk it references (see pipeline.finish),
// so a restore can never reference chunks the cloud lacks.
func (a *Agent) finishStream(p *pipeline, runErr error, start time.Time) (Report, error) {
	rep, err := p.finish(runErr)
	if err != nil {
		return rep, err
	}
	rep.Duration = time.Since(start)
	a.met.streamLat.ObserveDuration(rep.Duration)
	a.accumulate(rep)
	return rep, nil
}

func (a *Agent) accumulate(rep Report) {
	a.totalMu.Lock()
	defer a.totalMu.Unlock()
	a.total.InputBytes += rep.InputBytes
	a.total.InputChunks += rep.InputChunks
	a.total.DuplicateChunks += rep.DuplicateChunks
	a.total.UploadedChunks += rep.UploadedChunks
	a.total.UploadedBytes += rep.UploadedBytes
	a.total.Duration += rep.Duration
	a.total.Downgrades += rep.Downgrades
	a.total.Recoveries += rep.Recoveries
	a.total.DegradedLookups += rep.DegradedLookups
	a.total.IndexInsertFailures += rep.IndexInsertFailures
}
