package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/cloudstore"
)

// clients is the number of closed-loop client goroutines: the box has
// two cores, and a client that waits for its reply before sending the
// next stream is what a backup job is.
const clients = 2

// segments is how many equal consecutive parts of a phase the
// throughput medians are taken over.
const segments = 5

// setups is how many times a run builds and warms a testbed to report
// the median set-up time; it measures on the last one.
const setups = 3

var errMismatch = errors.New("restored bytes differ from the input")

// config is one run's command line.
type config struct {
	sp    *spec
	seed  int64
	scale float64
	dir   string // durable state goes under here
	out   string // trace files go here
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tally adds a phase's calls to the attempted/failed counts.
func (r *result) tally(calls []call) {
	for _, c := range calls {
		r.Attempted++
		if c.err != nil {
			r.Failed++
			info("call failed: %v", c.err)
		}
	}
}

// set records the metrics that defs declares, with their units, from
// vals. A declared metric that vals lacks stays absent (a p95 of too few
// samples is omitted, never invented); main refuses such a result unless
// the run was scaled down on purpose.
func (r *result) set(defs []metricDef, vals map[string]float64) {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}
}

// ingest submits tasks through their nodes' agents. With a tracer every
// call is a root span.
func ingest(tb *testbed, in *inputs, tasks []task, nclients int, tr *tracer) ([]call, []agent.Report, time.Duration) {
	reports := make([]agent.Report, len(tasks))
	calls, wall := runClients(nclients, len(tasks), func(i int) (int64, error) {
		t := tasks[i]
		data := in.bytesOf(t)
		if tr != nil {
			_, end := tr.begin("agent.ProcessBytes", 0, i+1)
			defer end(1, int64(len(data)))
		}
		rep, err := tb.agents[t.node].ProcessBytes(context.Background(), t.name, data)
		reports[i] = rep
		return int64(len(data)), err
	})
	return calls, reports, wall
}

// restore reads the chosen measured streams back through their nodes'
// cloud clients into a hashing writer and compares with the input's
// SHA-256.
func restore(tb *testbed, in *inputs, tr *tracer) ([]call, []cloudstore.RestoreStats, time.Duration) {
	stats := make([]cloudstore.RestoreStats, len(in.restore))
	calls, wall := runClients(clients, len(in.restore), func(i int) (int64, error) {
		t := in.measured[in.restore[i]]
		if tr != nil {
			_, end := tr.begin("cloudstore.RestoreTo", 0, i+1)
			defer func() { end(stats[i].Chunks, stats[i].Bytes) }()
		}
		h := sha256.New()
		st, err := tb.clients[t.node].RestoreTo(context.Background(), t.name, h, cloudstore.RestoreOptions{})
		stats[i] = st
		if err == nil && [sha256.Size]byte(h.Sum(nil)) != in.sums[[2]int{t.src, t.idx}] {
			err = fmt.Errorf("restore %s: %w", t.name, errMismatch)
		}
		return st.Bytes, err
	})
	return calls, stats, wall
}

// setUp builds a testbed and runs the warm-up pass on it: every
// connection is dialed, pools are filled and the index holds the
// warm-up streams' chunks when it returns.
func setUp(cfg config, in *inputs, ms *meters, attempt int) (*testbed, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", cfg.sp.name, attempt))
	tb, err := newTestbed(cfg.sp, dir, ms)
	if err != nil {
		return nil, err
	}
	calls, _, _ := ingest(tb, in, in.warm, 1, nil)
	for _, c := range calls {
		if c.err != nil {
			tb.close()
			return nil, fmt.Errorf("warm-up: %w", c.err)
		}
	}
	return tb, nil
}

// oracle checks what the run left behind against what the benchmark
// knows must be there, and returns the violations.
func oracle(tb *testbed, in *inputs, before cloudstore.Stats, calls []call, reports []agent.Report) []string {
	var bad []string
	var submitted, reported, uploaded int64
	for i, rep := range reports {
		submitted += calls[i].bytes
		reported += rep.InputBytes
		uploaded += rep.UploadedBytes
		if rep.Downgrades != 0 || rep.DegradedLookups != 0 {
			bad = append(bad, fmt.Sprintf("stream %s ran degraded (%d downgrades, %d degraded lookups)",
				rep.Name, rep.Downgrades, rep.DegradedLookups))
		}
	}
	if reported != submitted {
		bad = append(bad, fmt.Sprintf("reports count %d input bytes, %d were submitted", reported, submitted))
	}
	after := tb.cloud.Stats()
	if growth := after.UniqueBytes - before.UniqueBytes; uploaded < growth {
		bad = append(bad, fmt.Sprintf("cloud grew by %d unique bytes but agents report %d uploaded", growth, uploaded))
	}
	if after.UniqueChunks != in.refChunks || after.UniqueBytes != in.refBytes {
		bad = append(bad, fmt.Sprintf("cloud holds %d chunks / %d bytes, reference chunking of the inputs gives %d / %d",
			after.UniqueChunks, after.UniqueBytes, in.refChunks, in.refBytes))
	}
	return bad
}

// endToEnd is the untraced run: the end-to-end metrics of one workload.
func endToEnd(cfg config) (*result, error) {
	genStart := time.Now()
	in, err := prepare(cfg.sp, cfg.seed, cfg.scale, 1)
	if err != nil {
		return nil, err
	}
	info("gen_s %.3f (%d warm-up + %d measured streams, %.1f MB)", time.Since(genStart).Seconds(),
		len(in.warm), len(in.measured), float64(in.totalBytes)/1e6)

	var tb *testbed
	var setupS []float64
	for attempt := 0; attempt < setups; attempt++ {
		if tb != nil {
			if err := tb.close(); err != nil {
				return nil, fmt.Errorf("close testbed: %w", err)
			}
			runtime.GC() // the old testbed's store is not this set-up's cost
		}
		start := time.Now()
		if tb, err = setUp(cfg, in, nil, attempt); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer tb.close()

	res := &result{}
	before := tb.cloud.Stats()
	tb.topo.ResetCounters()
	ingestCalls, reports, ingestWall := ingest(tb, in, in.measured, clients, nil)
	wan, edge := tb.wanBytes(), tb.edgeBytes()
	tb.cloud.FlushContainers()
	res.tally(ingestCalls)
	var measuredBytes int64
	for _, c := range ingestCalls {
		measuredBytes += c.bytes
	}
	violations := oracle(tb, in, before, ingestCalls, reports)
	unique := tb.cloud.Stats().UniqueBytes

	// Inputs are dead from here (restores are checked against their
	// hashes), so what is live is the system's own state.
	in.data = nil
	runtime.GC()
	runtime.GC() // the second cycle empties the sync.Pool victim caches
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	restoreCalls, _, restoreWall := restore(tb, in, nil)
	res.tally(restoreCalls)
	for _, v := range violations {
		info("oracle: %s", v)
	}
	res.Failed += len(violations)
	res.Correct = res.Failed == 0
	info("ingest %d streams in %.2fs, restore %d streams in %.2fs", len(ingestCalls), ingestWall.Seconds(),
		len(restoreCalls), restoreWall.Seconds())

	ingestMS, restoreMS := latenciesMS(ingestCalls), latenciesMS(restoreCalls)
	vals := map[string]float64{
		"setup_s":                   median(setupS),
		"ingest_mbps":               median(segmentRates(ingestCalls, segments)) / 1e6,
		"stream_p50_ms":             median(ingestMS),
		"restore_mbps":              median(segmentRates(restoreCalls, segments)) / 1e6,
		"restore_p50_ms":            median(restoreMS),
		"dedup_ratio":               float64(in.totalBytes) / float64(unique),
		"wan_bytes_per_input_byte":  float64(wan) / float64(measuredBytes),
		"edge_bytes_per_input_byte": float64(edge) / float64(measuredBytes),
		"heap_live_mb":              float64(mem.HeapAlloc) / 1e6,
		"ok_ratio":                  1 - float64(res.Failed)/float64(res.Attempted),
	}
	if v, ok := tailLatencyMS(ingestCalls, segments); ok {
		vals["stream_p95_ms"] = v
	}
	res.set(endToEndMetrics, vals)
	return res, nil
}
