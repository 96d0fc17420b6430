package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
)

// tracedPrefix is the leading share of a workload's measured streams
// that the traced run processes.
const tracedPrefix = 0.1

// traced is the per-layer run of one workload: a boundary run (the real
// agents, with every connection counted), a staged run (one stream's
// work done sequentially through the same public calls, one span per
// call) and the isolated rows. Nothing here feeds an end-to-end metric.
func traced(cfg config) (*result, error) {
	in, err := prepare(cfg.sp, cfg.seed, cfg.scale, tracedPrefix)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res := &result{}
	vals := make(map[string]float64)

	tbA, agentTime, err := boundary(cfg, in, tr, res, vals)
	if err != nil {
		return nil, err
	}
	defer tbA.close()
	if err := staged(cfg, in, tr, tbA, agentTime, res, vals); err != nil {
		return nil, err
	}
	if err := isolated(cfg, vals); err != nil {
		return nil, err
	}
	if tr.dropped > 0 {
		info("trace buffer full: %d spans dropped", tr.dropped)
	}
	path := filepath.Join(cfg.out, "trace-"+cfg.sp.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	info("%d spans written to %s", tr.count(), path)
	res.Correct = res.Failed == 0
	res.set(perLayerMetrics, vals)
	return res, nil
}

// boundary runs the real agents on a testbed whose every dialer and
// listener is metered, and fills the wire, count and whole-process
// metrics. It returns the testbed (the staged run compares manifests
// with it) and the summed ProcessBytes latency of the measured streams.
func boundary(cfg config, in *inputs, tr *tracer, res *result, vals map[string]float64) (*testbed, time.Duration, error) {
	ms := &meters{}
	tb, err := setUp(cfg, in, ms, 0)
	if err != nil {
		return nil, 0, err
	}
	before := tb.cloud.Stats()
	tb.topo.ResetCounters()
	indexBytes, cloudBytes := ms.stats[indexDial].bytes(), ms.stats[cloudDial].bytes()
	local0, remote0 := tb.lookupStats()
	io0, cpu0 := readProcIO(), cpuTime()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	calls, reports, _ := ingest(tb, in, in.measured, clients, tr)

	runtime.ReadMemStats(&mem1)
	cpu := cpuTime() - cpu0
	flushStart := time.Now()
	tb.cloud.FlushContainers()
	vals["cloudstore.flush_containers_ms"] = float64(time.Since(flushStart)) / 1e6
	io1 := readProcIO()
	res.tally(calls)
	for _, v := range oracle(tb, in, before, calls, reports) {
		info("oracle: %s", v)
		res.Failed++
	}

	var inBytes, inChunks int64
	var agentTime time.Duration
	for i, rep := range reports {
		inBytes += calls[i].bytes
		inChunks += rep.InputChunks
		agentTime += calls[i].lat
	}
	mb := float64(inBytes) / 1e6
	local1, remote1 := tb.lookupStats()
	vals["process.boundary_ingest_mbps"] = median(segmentRates(calls, segments)) / 1e6
	vals["agent.allocs_per_mb"] = float64(mem1.Mallocs-mem0.Mallocs) / mb
	vals["agent.alloc_bytes_per_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / mb
	vals["process.cpu_s_per_gb"] = cpu.Seconds() / (mb / 1e3)
	vals["process.write_syscalls_per_mb"] = float64(io1.syscw-io0.syscw) / mb
	vals["process.written_bytes_per_input_byte"] = float64(io1.wchar-io0.wchar) / float64(inBytes)
	vals["kvstore.remote_lookup_fraction"] = float64(remote1-remote0) / float64(max(local1-local0+remote1-remote0, 1))
	vals["kvstore.wire_bytes_per_chunk"] = float64(ms.stats[indexDial].bytes()-indexBytes) / float64(inChunks)
	vals["cloudstore.wire_bytes_per_input_byte"] = float64(ms.stats[cloudDial].bytes()-cloudBytes) / float64(inBytes)

	// Restore fragmentation and fetch amplification, from the real
	// restore path's own statistics and the cloud connections' reads.
	cloudRead := ms.stats[cloudDial].readBytes.Load()
	rcalls, rstats, _ := restore(tb, in, tr)
	res.tally(rcalls)
	var restored, hits, misses int64
	var containers, fallback int
	for _, st := range rstats {
		restored += st.Bytes
		hits, misses = hits+st.CacheHits, misses+st.CacheMisses
		containers += st.ContainersTouched
		fallback += st.FallbackChunks
	}
	vals["cloudstore.restore_containers_per_stream"] = float64(containers) / float64(len(rstats))
	vals["cloudstore.restore_fetch_amp"] = float64(ms.stats[cloudDial].readBytes.Load()-cloudRead) / float64(max(restored, 1))
	vals["cloudstore.restore_cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	vals["cloudstore.restore_fallback_chunks"] = float64(fallback)

	// Per-stream fixed cost: a stream of one chunk the index already
	// holds does every per-stream step and no per-byte work.
	one := in.bytesOf(in.warm[0])[:1024]
	a := tb.agents[in.warm[0].node]
	var overhead []float64
	for i := 0; i <= 100; i++ {
		start := time.Now()
		_, err := a.ProcessBytes(context.Background(), fmt.Sprintf("one/%d", i), one)
		if err != nil {
			tb.close()
			return nil, 0, fmt.Errorf("one-chunk stream: %w", err)
		}
		if i > 0 { // the first call uploads the chunk
			overhead = append(overhead, float64(time.Since(start))/1e3)
		}
	}
	vals["agent.per_stream_overhead_us"] = median(overhead)
	return tb, agentTime, nil
}

// stager performs streams step by step on its own testbed, one span per
// public call, and turns the traffic each call caused into transport
// child spans.
type stager struct {
	tr *tracer
	tb *testbed
	ms *meters

	chunker   chunk.Chunker
	splitName string    // span name of the workload's chunker
	sizes     []float64 // every chunk emitted, in bytes
}

// newStager starts recording exchanges on the testbed's connections,
// which must be idle (the warm-up is over).
func newStager(sp *spec, tr *tracer, tb *testbed, ms *meters) *stager {
	ms.tr.Store(tr)
	s := &stager{tr: tr, tb: tb, ms: ms, chunker: sp.chunker(), splitName: "chunk.gear_split"}
	if sp.fixedSize > 0 {
		s.splitName = "chunk.fixed_split"
	}
	return s
}

// call runs fn as a span named name under parent.
func (s *stager) call(name string, parent, stream int, fn func() (items int, bytes int64, err error)) error {
	id, end := s.tr.begin(name, parent, stream)
	items, n, err := fn()
	end(items, n)
	s.ms.closeExchanges(id, stream)
	if err != nil {
		return fmt.Errorf("staged %s: %w", name, err)
	}
	return nil
}

// split drives the workload's chunker the way the agent's pipeline does
// for an in-memory stream: zero-copy when the chunker offers it.
func split(c chunk.Chunker, data []byte, emit func(chunk.Raw) error) error {
	if bc, ok := c.(chunk.RawBytesChunker); ok {
		return bc.SplitRawBytes(data, emit)
	}
	if rc, ok := c.(chunk.RawChunker); ok {
		return rc.SplitRaw(bytes.NewReader(data), emit)
	}
	return fmt.Errorf("chunker %T has no raw path", c)
}

// ingest does one stream's work sequentially through the calls the
// agent's pipeline makes — split, SHA-256, BatchHas by 32, BatchUpload
// by 64, BatchPut of what the cloud acked, PutManifest — and returns
// the manifest it stored.
func (s *stager) ingest(stream int, t task, data []byte) ([]chunk.ID, error) {
	ctx := context.Background()
	index, cloud := s.tb.indexes[t.node], s.tb.clients[t.node]
	root, endRoot := s.tr.begin("agent.stream", 0, stream)
	defer func() { endRoot(1, int64(len(data))) }()

	var raws []chunk.Raw
	defer func() {
		for _, r := range raws {
			r.Release()
		}
	}()
	err := s.call(s.splitName, root, stream, func() (int, int64, error) {
		err := split(s.chunker, data, func(r chunk.Raw) error {
			raws = append(raws, r)
			return nil
		})
		return len(raws), int64(len(data)), err
	})
	if err != nil {
		return nil, err
	}
	ids := make([]chunk.ID, len(raws))
	_ = s.call("chunk.sha256", root, stream, func() (int, int64, error) {
		for i, r := range raws {
			ids[i] = chunk.Sum(r.Data)
			s.sizes = append(s.sizes, float64(len(r.Data)))
		}
		return len(raws), int64(len(data)), nil
	})

	var lookup, fresh []chunk.Chunk
	upload := func(atLeast int) error {
		for len(fresh) >= atLeast {
			batch := fresh[:min(agent.DefaultUploadBatch, len(fresh))]
			fresh = fresh[len(batch):]
			var n int64
			owner := []byte(fmt.Sprintf("n%d", t.node))
			keys, owners := make([][]byte, len(batch)), make([][]byte, len(batch))
			for i := range batch {
				n += int64(len(batch[i].Data))
				keys[i], owners[i] = batch[i].ID[:], owner
			}
			err := s.call("cloudstore.BatchUpload", root, stream, func() (int, int64, error) {
				_, err := cloud.BatchUpload(ctx, batch)
				return len(batch), n, err
			})
			if err != nil {
				return err
			}
			err = s.call("kvstore.BatchPut", root, stream, func() (int, int64, error) {
				return len(keys), 0, index.BatchPut(ctx, keys, owners)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	probe := func() error {
		if len(lookup) == 0 {
			return nil
		}
		keys := make([][]byte, len(lookup))
		for i := range lookup {
			keys[i] = lookup[i].ID[:]
		}
		var known []bool
		err := s.call("kvstore.BatchHas", root, stream, func() (int, int64, error) {
			var err error
			known, err = index.BatchHas(ctx, keys)
			return len(keys), 0, err
		})
		if err != nil {
			return err
		}
		for i, k := range known {
			if !k {
				fresh = append(fresh, lookup[i])
			}
		}
		lookup = lookup[:0]
		return upload(agent.DefaultUploadBatch)
	}
	seen := make(map[chunk.ID]bool, len(raws))
	for i, r := range raws {
		if seen[ids[i]] {
			continue
		}
		seen[ids[i]] = true
		lookup = append(lookup, chunk.Chunk{ID: ids[i], Offset: r.Offset, Data: r.Data})
		if len(lookup) == agent.DefaultLookupBatch {
			if err := probe(); err != nil {
				return nil, err
			}
		}
	}
	if err := probe(); err != nil {
		return nil, err
	}
	if err := upload(1); err != nil {
		return nil, err
	}
	err = s.call("cloudstore.PutManifest", root, stream, func() (int, int64, error) {
		return len(ids), 0, cloud.PutManifest(ctx, t.name, ids)
	})
	return ids, err
}

// restore fetches one stream's recipe and each container it names, in
// recipe order, once each.
func (s *stager) restore(stream int, t task) error {
	ctx := context.Background()
	cloud := s.tb.clients[t.node]
	root, endRoot := s.tr.begin("cloudstore.staged_restore", 0, stream)
	defer endRoot(1, 0)
	var recipe []cloudstore.RecipeEntry
	err := s.call("cloudstore.GetRecipe", root, stream, func() (int, int64, error) {
		var err error
		recipe, err = cloud.GetRecipe(ctx, t.name)
		return len(recipe), 0, err
	})
	if err != nil {
		return err
	}
	fetched := make(map[uint64]bool)
	for _, e := range recipe {
		if id := e.Loc.Container; id != 0 && !fetched[id] {
			fetched[id] = true
			err := s.call("cloudstore.GetContainer", root, stream, func() (int, int64, error) {
				data, err := cloud.GetContainer(ctx, id)
				return 1, int64(len(data)), err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probes times the batched calls at the agent's batch sizes, so the
// rows exist (and mean the same) on workloads whose streams never fill
// an upload batch.
func (s *stager) probes(sp *spec, manifest []chunk.ID) error {
	ctx := context.Background()
	index, cloud := s.tb.indexes[0], s.tb.clients[0]
	size := sp.fixedSize
	if size == 0 {
		size = 8192
	}
	for i := 0; i < 30; i++ {
		batch := freshChunks(i*agent.DefaultUploadBatch, agent.DefaultUploadBatch, size)
		keys, owners := make([][]byte, len(batch)), make([][]byte, len(batch))
		for j := range batch {
			keys[j], owners[j] = batch[j].ID[:], []byte("n0")
		}
		err := s.call("kvstore.probe_BatchHas", 0, 0, func() (int, int64, error) {
			_, err := index.BatchHas(ctx, keys[:agent.DefaultLookupBatch])
			return agent.DefaultLookupBatch, 0, err
		})
		if err != nil {
			return err
		}
		err = s.call("cloudstore.probe_BatchUpload", 0, 0, func() (int, int64, error) {
			_, err := cloud.BatchUpload(ctx, batch)
			return len(batch), int64(len(batch) * size), err
		})
		if err != nil {
			return err
		}
		err = s.call("kvstore.probe_BatchPut", 0, 0, func() (int, int64, error) {
			return len(keys), 0, index.BatchPut(ctx, keys, owners)
		})
		if err != nil {
			return err
		}
		err = s.call("cloudstore.probe_PutManifest", 0, 0, func() (int, int64, error) {
			return len(manifest), 0, cloud.PutManifest(ctx, fmt.Sprintf("probe/%d", i), manifest)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// staged runs the traced prefix through the stager on a second testbed
// and derives the per-call rows and the per-layer time shares.
func staged(cfg config, in *inputs, tr *tracer, tbA *testbed, agentTime time.Duration, res *result, vals map[string]float64) error {
	ms := &meters{}
	tb, err := setUp(cfg, in, ms, 1)
	if err != nil {
		return err
	}
	defer tb.close()
	s := newStager(cfg.sp, tr, tb, ms)
	first := tr.count()

	var manifest []chunk.ID
	for i, t := range in.measured {
		res.Attempted++
		manifest, err = s.ingest(i+1, t, in.bytesOf(t))
		if err != nil {
			return err
		}
		want, err := tbA.clients[t.node].GetManifest(context.Background(), t.name)
		if err != nil {
			return fmt.Errorf("agent's manifest of %s: %w", t.name, err)
		}
		if !slices.Equal(manifest, want) {
			res.Failed++
			info("oracle: staged manifest of %s differs from the agent's", t.name)
		}
	}
	tb.cloud.FlushContainers()
	for i, r := range in.restore {
		if err := s.restore(i+1, in.measured[r]); err != nil {
			return err
		}
	}
	if err := s.probes(cfg.sp, manifest); err != nil {
		return err
	}

	spans := tr.snapshot()[first:]
	durs := make(map[string][]float64) // span name -> durations in µs
	sums := make(map[string]time.Duration)
	bytesOf := make(map[string]int64)
	var rootTime time.Duration
	for _, sp := range spans {
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur())/1e3)
		sums[sp.Name] += sp.dur()
		bytesOf[sp.Name] += sp.Bytes
		if sp.Name == "agent.stream" {
			rootTime += sp.dur()
		}
	}
	mbps := func(name string) float64 {
		if sums[name] == 0 {
			return 0
		}
		return float64(bytesOf[name]) / sums[name].Seconds() / 1e6
	}
	vals["chunk.gear_split_mbps"] = mbps("chunk.gear_split")
	vals["chunk.fixed_split_mbps"] = mbps("chunk.fixed_split")
	vals["chunk.sha256_mbps"] = mbps("chunk.sha256")
	slices.Sort(s.sizes)
	var total float64
	for _, sz := range s.sizes {
		total += sz
	}
	vals["chunk.mean_chunk_bytes"] = total / float64(len(s.sizes))
	vals["chunk.p10_chunk_bytes"] = rank(s.sizes, 0.10)
	vals["chunk.p90_chunk_bytes"] = rank(s.sizes, 0.90)
	vals["kvstore.batchhas_us"] = median(durs["kvstore.probe_BatchHas"])
	vals["kvstore.batchput_us"] = median(durs["kvstore.probe_BatchPut"])
	vals["cloudstore.batchupload_mbps"] = mbps("cloudstore.probe_BatchUpload")
	vals["cloudstore.putmanifest_us"] = median(durs["cloudstore.probe_PutManifest"])
	vals["cloudstore.getrecipe_us"] = median(durs["cloudstore.GetRecipe"])
	vals["cloudstore.getcontainer_ms"] = median(durs["cloudstore.GetContainer"]) / 1e3
	// How much of the sequential cost the agent's pipeline hides.
	vals["agent.overlap_ratio"] = rootTime.Seconds() / agentTime.Seconds()
	self := layerSelfTimes(spans, "agent.stream")
	for _, layer := range []string{"chunk", "agent", "kvstore", "cloudstore", "transport"} {
		vals[layer+".staged_time_share"] = self[layer].Seconds() / rootTime.Seconds()
	}
	info("staged: %d streams, %.2fs sequential vs %.2fs in the agents", len(in.measured), rootTime.Seconds(), agentTime.Seconds())
	return nil
}
