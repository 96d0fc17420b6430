// Package cloudstore implements the central cloud of EF-dedup: a
// content-addressed chunk store with a global deduplication index and a
// file-manifest catalog, served over the transport RPC protocol.
//
// Three client roles use it (paper Sec. V-A):
//
//   - EF-dedup agents upload only the chunks their D2-ring identified as
//     unique (BatchUpload);
//   - Cloud-assisted agents keep no edge index: they probe the cloud's
//     global index (BatchHas) and upload misses;
//   - Cloud-only agents ship raw data (UploadRaw); the cloud chunks and
//     deduplicates server-side.
//
// Manifests map a file name to its chunk sequence so any stored stream
// can be restored and verified end to end. Both edge roles end a stream
// with one Commit: its last, partial upload batch and its manifest in
// one round trip. The server records the manifest only if every chunk it
// names is stored, so an acked manifest always restores.
//
// Fresh chunks are packed in upload order into locality-preserving
// containers (container.go), the only place a payload is kept; each
// manifest is a record in the same container log, written behind its
// stream's tail and made durable by the same sync. A restore asks for
// its stream a page at a time (restore.go): the server reads the records
// a page needs out of each container, sealed or still open, and the
// client verifies every payload against its chunk ID, so a stream of up
// to 256 chunks costs one round trip.
package cloudstore

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
	"efdedup/internal/transport"
)

// RPC method names served by the cloud store.
const (
	methodBatchUpload  = "cloud.batchupload"
	methodBatchHas     = "cloud.batchhas"
	methodUploadRaw    = "cloud.uploadraw"
	methodGetRecipe    = "cloud.getrecipe"
	methodGetContainer = "cloud.getcontainer"
	methodRead         = "cloud.read"
	methodCommit       = "cloud.commit"
	methodStats        = "cloud.stats"
)

// ErrNotFound is returned for missing chunks or manifests.
var ErrNotFound = errors.New("cloudstore: not found")

// ErrProto marks malformed or truncated request/response payloads:
// decode failures that re-sending the same bytes cannot fix.
var ErrProto = errors.New("cloudstore: protocol error")

// ErrCorrupt marks integrity failures — stored or transmitted bytes no
// longer hash to their chunk ID. Restore paths treat it as data loss,
// not as a transient fault to retry.
var ErrCorrupt = errors.New("cloudstore: corrupt data")

// ErrConfig marks invalid store construction or an unusable data
// directory.
var ErrConfig = errors.New("cloudstore: invalid configuration")

// Stats summarizes what the cloud has seen and stored.
type Stats struct {
	// UniqueChunks and UniqueBytes describe the deduplicated store.
	UniqueChunks int64
	UniqueBytes  int64
	// LogicalBytes counts all payload bytes clients asked the cloud to
	// store (before deduplication), including raw uploads.
	LogicalBytes int64
	// RawUploads counts UploadRaw calls (cloud-only clients).
	RawUploads int64
	// Manifests counts stored file manifests.
	Manifests int64
	// ContainersSealed counts sealed locality containers.
	ContainersSealed int64
	// DuplicatedBytes counts selective-duplication bytes spent packing
	// hot shared chunks near their new neighbours (capped by
	// Config.DupFraction).
	DuplicatedBytes int64
}

// Server is the central cloud store.
type Server struct {
	chunker chunk.Chunker

	logicalBytes, rawUploads atomic.Int64    // Stats counters; containers owns the rest
	containers               *containerStore // the chunk index, the manifest catalog and every payload

	rpc      *transport.Server
	listener net.Listener
}

// Config configures the cloud store.
type Config struct {
	// Chunker is used to split raw (cloud-only) uploads. Defaults to an
	// 8 KiB fixed chunker, matching the edge agents.
	Chunker chunk.Chunker
	// Dir, when set, persists the container log — chunks and manifests —
	// under this directory; the server rebuilds its index and catalog from
	// it on startup. Empty keeps everything in memory.
	Dir string
	// ContainerBytes is the target sealed-container size, at most 1 GiB.
	// Defaults to DefaultContainerBytes (4 MiB).
	ContainerBytes int
	// DupFraction caps selective-duplication bytes at this fraction of
	// the unique bytes packed into containers. Zero disables duplication
	// and a negative value counts as zero; efdedup-cloud's -dup-fraction
	// flag defaults to DefaultDupFraction.
	DupFraction float64
	// SparseRefLimit marks a container as fragmenting for a manifest
	// that references it for at most this many chunks. Defaults to
	// DefaultSparseRefLimit.
	SparseRefLimit int
}

// NewServer builds an empty cloud store.
func NewServer(cfg Config) (*Server, error) {
	if cfg.ContainerBytes > transport.MaxFrameSize {
		return nil, fmt.Errorf("%w: container size %d exceeds %d", ErrConfig, cfg.ContainerBytes, transport.MaxFrameSize)
	}
	c := cfg.Chunker
	if c == nil {
		fc, err := chunk.NewFixedChunker(chunk.DefaultFixedSize)
		if err != nil {
			return nil, err
		}
		c = fc
	}
	s := &Server{chunker: c, rpc: transport.NewServer()}
	if cfg.Dir == "" {
		s.containers = newContainerStore(newMemLog(), cfg.ContainerBytes, cfg.DupFraction, cfg.SparseRefLimit)
	} else if err := s.openDir(cfg); err != nil {
		return nil, err
	}
	s.handle(methodBatchUpload, s.handleBatchUpload)
	s.handle(methodBatchHas, s.handleBatchHas)
	s.handle(methodUploadRaw, s.handleUploadRaw)
	s.handle(methodGetRecipe, s.handleGetRecipe)
	s.handle(methodGetContainer, s.handleGetContainer)
	s.handle(methodRead, s.handleRead)
	s.handle(methodCommit, s.handleCommit)
	s.handle(methodStats, s.handleStats)
	reg := metrics.Default()
	reg.GaugeFunc("cloud_server_unique_chunks", func() float64 {
		return float64(s.Stats().UniqueChunks)
	})
	reg.GaugeFunc("cloud_server_unique_bytes", func() float64 {
		return float64(s.Stats().UniqueBytes)
	})
	reg.GaugeFunc("cloud_server_manifests", func() float64 {
		return float64(s.Stats().Manifests)
	})
	return s, nil
}

// openDir makes the store disk-backed: one scan of cfg.Dir rebuilds the
// index, the catalog and their counters. An open container ending in a
// manifest a crash tore is sealed, so no later part can extend it.
func (s *Server) openDir(cfg Config) error {
	disk, err := NewDiskStore(cfg.Dir)
	if err != nil {
		return err
	}
	cs := newContainerStore(disk, cfg.ContainerBytes, cfg.DupFraction, cfg.SparseRefLimit)
	if cs.openID, err = disk.load(cs.replay); err != nil {
		return fmt.Errorf("cloudstore: rebuild index: %w", err)
	}
	if cs.replayingName != "" && cs.replaying.Container == cs.openID {
		cs.flush()
	}
	s.containers = cs
	return cs.logErr
}

// handle registers a handler wrapped with serve-latency and failure
// instrumentation (the cloud half of the upload path Fig. 5a measures).
func (s *Server) handle(method string, h func([]byte) ([]byte, error)) {
	reg := metrics.Default()
	hist := reg.DurationHistogram("cloud_server_rpc_seconds", "method", method)
	fails := reg.Counter("cloud_server_rpc_failures_total", "method", method)
	s.rpc.Handle(method, func(body []byte) ([]byte, error) {
		sp := metrics.StartTimer(hist)
		resp, err := h(body)
		sp.End()
		if err != nil && !errors.Is(err, ErrNotFound) {
			fails.Inc()
		}
		return resp, err
	})
}

// Serve starts accepting connections on l in the background.
func (s *Server) Serve(l net.Listener) {
	s.listener = l
	go s.rpc.Serve(l) //nolint:errcheck // returns on Close
}

// Addr returns the listen address, or "" before Serve.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the server, sealing the open container so restarts serve
// recent chunks with container locality immediately.
func (s *Server) Close() error {
	s.FlushContainers()
	return s.rpc.Close()
}

// FlushContainers seals the open container regardless of fill level
// (tests and benchmarks use it to make packing deterministic; Close
// calls it on shutdown).
func (s *Server) FlushContainers() {
	s.containers.flush()
}

// Stats returns a snapshot of the store's counters.
func (s *Server) Stats() Stats {
	st := Stats{LogicalBytes: s.logicalBytes.Load(), RawUploads: s.rawUploads.Load()}
	s.containers.addStats(&st)
	return st
}

// validManifestName rejects names that cannot be stored or would alias
// filesystem traversal entries. The empty name is rejected here; raw
// uploads treat "" as "no manifest" and skip validation entirely.
func validManifestName(name string) error {
	switch name {
	case "", ".", "..":
		return fmt.Errorf("%w: invalid manifest name %q", ErrProto, name)
	}
	return nil
}

// verifyChunks checks that every uploaded payload hashes to its ID.
func verifyChunks(chunks []chunk.Chunk) error {
	for i, ck := range chunks {
		if chunk.Sum(ck.Data) != ck.ID {
			return fmt.Errorf("%w: batch record %d content mismatch", ErrCorrupt, i)
		}
	}
	return nil
}

// store counts and stores chunks, for a non-empty name records ids as its
// manifest, and repacks what that references sparsely; the response is
// u32 chunks that were new.
func (s *Server) store(chunks []chunk.Chunk, name string, ids []chunk.ID) ([]byte, error) {
	for _, ck := range chunks {
		s.logicalBytes.Add(int64(len(ck.Data)))
	}
	stored, err := s.containers.put(chunks, name, ids)
	if err != nil {
		return nil, err
	}
	s.repackSparse(ids)
	return encodeCount(stored), nil
}

// repackSparse applies bounded selective duplication after a manifest is
// recorded: chunks this manifest references in containers it touches only
// sparsely are copied into the open container, so future restores of
// this stream (and its successors) read dense containers instead of a
// few chunks from each of many old ones.
func (s *Server) repackSparse(ids []chunk.ID) {
	if s.containers.dupFraction <= 0 || len(ids) == 0 {
		return
	}
	sparse := s.containers.sparseContainers(ids)
	var entries []RecipeEntry
	for _, e := range s.containers.locateAll(ids) {
		if sparse[e.Loc.Container] {
			entries = append(entries, e)
		}
	}
	found, _, err := s.containers.readPayloads(entries)
	if err != nil {
		return // unreadable copies are a restore-time problem, not a packing one
	}
	for _, e := range entries {
		if data, ok := found[e.ID]; ok {
			if !s.containers.repack(e.ID, data) {
				return // duplication budget exhausted
			}
			delete(found, e.ID)
		}
	}
}

// --- handlers ----------------------------------------------------------

// batch upload body: u32 count | (32-byte ID | u32 len | payload)*;
// response: u32 chunks that were new. Verifies content addressing.
func (s *Server) handleBatchUpload(body []byte) ([]byte, error) {
	chunks, err := decodeChunkList(body)
	if err != nil {
		return nil, err
	}
	if err := verifyChunks(chunks); err != nil {
		return nil, err
	}
	return s.store(chunks, "", nil)
}

// batchhas body: u32 count | (32-byte ID)*; response: one byte per ID.
func (s *Server) handleBatchHas(body []byte) ([]byte, error) {
	ids, err := decodeIDList(body)
	if err != nil {
		return nil, err
	}
	return s.containers.has(ids), nil
}

// uploadraw body: u16 name length | name | payload. The server chunks and
// deduplicates; the response is u32 unique-chunks-stored.
func (s *Server) handleUploadRaw(body []byte) ([]byte, error) {
	name, payload, err := decodeNamedBlob(body)
	if err != nil {
		return nil, err
	}
	chunks, err := chunk.SplitBytes(s.chunker, payload)
	if err != nil {
		return nil, err
	}
	var ids []chunk.ID
	if name != "" {
		if err := validManifestName(name); err != nil {
			return nil, err
		}
		ids = make([]chunk.ID, len(chunks))
		for i, c := range chunks {
			ids[i] = c.ID
		}
	}
	resp, err := s.store(chunks, name, ids)
	if err == nil {
		s.rawUploads.Add(1)
	}
	return resp, err
}

// getrecipe body: manifest name; response: u32 count | per chunk:
// 32-byte ID | u64 container | u32 offset | u32 length. The container is
// the sealed or open one holding the chunk's newest copy.
func (s *Server) handleGetRecipe(body []byte) ([]byte, error) {
	return s.containers.recipe(string(body))
}

// getcontainer body: u64 container ID; response: the sealed or open
// container's raw CRC-framed bytes.
func (s *Server) handleGetContainer(body []byte) ([]byte, error) {
	id, err := decodeContainerRequest(body)
	if err != nil {
		return nil, err
	}
	return s.containers.read(id, nil)
}

// read body: u16 name length | name | u32 first chunk; response: the
// page of the named manifest starting there (see encodePage), built from
// the containers it touches, each read once.
func (s *Server) handleRead(body []byte) ([]byte, error) {
	name, first, err := decodeReadRequest(body)
	if err != nil {
		return nil, err
	}
	p, err := s.containers.readPage(name, int(first))
	if err != nil {
		return nil, err
	}
	return encodePage(p), nil
}

// commit body: u16 name length | name | u32 count | (32-byte ID | u32 len |
// payload)* | (32-byte ID)*; response: u32 tail chunks that were new.
// It ends a stream in one round trip: the tail's fresh records and, if
// every chunk the manifest names is stored or in the tail, the manifest's
// records are appended, synced once and only then published — an acked
// manifest always restores. A manifest naming a missing chunk is an
// ErrNotFound and records nothing; the tail is still stored.
func (s *Server) handleCommit(body []byte) ([]byte, error) {
	name, chunks, ids, err := decodeCommit(body)
	if err != nil {
		return nil, err
	}
	if err := validManifestName(name); err != nil {
		return nil, err
	}
	if err := verifyChunks(chunks); err != nil {
		return nil, err
	}
	return s.store(chunks, name, ids)
}

func (s *Server) handleStats([]byte) ([]byte, error) {
	return encodeStats(s.Stats()), nil
}
