// Command efdedup-agent runs the Dedup Agent on one edge node: it chunks
// the given files, deduplicates them against the configured index and
// ships unique chunks to the central cloud.
//
// Ring mode (EF-dedup proper) deduplicates against the D2-ring's
// distributed index:
//
//	efdedup-agent -mode ring -cloud cloud:7080 \
//	    -ring kv0:7070,kv1:7070,kv2:7070 -local kv0:7070 data/*.bin
//
// Cloud-assisted mode probes the cloud's global index instead:
//
//	efdedup-agent -mode cloud-assisted -cloud cloud:7080 data/*.bin
//
// Cloud-only mode ships raw data:
//
//	efdedup-agent -mode cloud-only -cloud cloud:7080 data/*.bin
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/metrics"
	"efdedup/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func parseMode(s string) (agent.Mode, error) {
	switch s {
	case "ring":
		return agent.ModeRing, nil
	case "cloud-assisted":
		return agent.ModeCloudAssisted, nil
	case "cloud-only":
		return agent.ModeCloudOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want ring, cloud-assisted or cloud-only)", s)
	}
}

func run() error {
	var (
		modeFlag       = flag.String("mode", "ring", "dedup strategy: ring | cloud-assisted | cloud-only")
		cloudAddr      = flag.String("cloud", "127.0.0.1:7080", "central cloud store address")
		ringList       = flag.String("ring", "", "comma-separated D2-ring index node addresses (ring mode)")
		localAddr      = flag.String("local", "", "this node's index address, preferred for lookups (ring mode)")
		name           = flag.String("name", "agent", "agent name recorded in manifests")
		chunkSize      = flag.Int("chunk-size", chunk.DefaultFixedSize, "fixed chunk size in bytes")
		cdc            = flag.Bool("cdc", false, "use content-defined (gear) chunking instead of fixed")
		rf             = flag.Int("rf", 2, "index replication factor γ (ring mode)")
		hashWorkers    = flag.Int("hash-workers", 0, "concurrent SHA-256 workers shared by all streams (0 = GOMAXPROCS, capped at physical cores)")
		lookupInflight = flag.Int("lookup-inflight", 0, "overlapped index-lookup batches shared by all streams (0 = default)")
		maxStreams     = flag.Int("max-streams", 0, "concurrent streams admitted into the agent; extra files queue (0 = default, negative = unlimited)")
		arenaBudget    = flag.Int64("arena-budget", 0, "chunk payload bytes admitted across all streams (0 = default 256 MiB, negative = unlimited)")
		repairEvery    = flag.Duration("repair-interval", 0, "background anti-entropy repair period for the ring index: what refills a replica that missed writes (0 disables; ring mode)")
		timeout        = flag.Duration("timeout", 10*time.Minute, "overall processing deadline")
		metricsAddr    = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address (empty disables)")
		breakdown      = flag.Bool("breakdown", false, "print the per-stage latency breakdown after processing")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("no input files; usage: efdedup-agent [flags] file...")
	}
	mode, err := parseMode(*modeFlag)
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		go func() {
			log.Printf("metrics server stopped: %v", metrics.ListenAndServe(*metricsAddr, metrics.Default()))
		}()
		log.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)", *metricsAddr)
	}

	var chunker chunk.Chunker
	if *cdc {
		chunker = chunk.NewDefaultGearChunker()
	} else {
		fc, err := chunk.NewFixedChunker(*chunkSize)
		if err != nil {
			return err
		}
		chunker = fc
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	nw := transport.TCPNetwork{}
	cloud, err := cloudstore.Dial(ctx, nw, *cloudAddr)
	if err != nil {
		return err
	}
	defer cloud.Close()

	cfg := agent.Config{
		Name: *name, Mode: mode, Chunker: chunker, Cloud: cloud,
		HashWorkers: *hashWorkers, LookupInflight: *lookupInflight,
		MaxStreams: *maxStreams, ArenaBudgetBytes: *arenaBudget,
	}
	if mode == agent.ModeRing {
		members := strings.Split(*ringList, ",")
		if len(members) == 0 || members[0] == "" {
			return fmt.Errorf("ring mode needs -ring with at least one index address")
		}
		idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
			Members:           members,
			ReplicationFactor: *rf,
			LocalAddr:         *localAddr,
			Network:           nw,
			RepairInterval:    *repairEvery,
		})
		if err != nil {
			return err
		}
		defer idx.Close()
		cfg.Index = idx
	}
	a, err := agent.New(cfg)
	if err != nil {
		return err
	}

	// Files fan out concurrently; the agent's MaxStreams gate queues the
	// overflow, so the launch loop needs no pacing of its own.
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, path := range flag.Args() {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			f, err := os.Open(path)
			if err == nil {
				var rep agent.Report
				rep, err = a.ProcessStream(ctx, path, f)
				f.Close()
				if err == nil {
					log.Printf("%s: %d bytes, %d chunks, %d dup, %d uploaded (%d bytes), ratio %.2f, %.1f MB/s",
						path, rep.InputBytes, rep.InputChunks, rep.DuplicateChunks,
						rep.UploadedChunks, rep.UploadedBytes, rep.DedupRatio(), rep.Throughput()/1e6)
					return
				}
			}
			errMu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("process %s: %w", path, err)
			}
			errMu.Unlock()
		}(path)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	tot := a.Totals()
	log.Printf("total: %d bytes in, %d uploaded, overall ratio %.2f",
		tot.InputBytes, tot.UploadedBytes, tot.DedupRatio())
	if *breakdown {
		fmt.Println("\nper-stage breakdown:")
		metrics.Default().WriteBreakdown(os.Stdout)
	}
	return nil
}
