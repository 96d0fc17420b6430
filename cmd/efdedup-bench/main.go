// Command efdedup-bench regenerates the paper's evaluation figures: the
// estimation-accuracy plots (Fig. 2, 3), the testbed throughput and
// dedup-ratio comparisons (Fig. 5a-c), the network/storage trade-off
// (Fig. 6a-c) and the large-scale simulations (Fig. 7a-b).
//
// Usage:
//
//	efdedup-bench -fig all            # every figure, paper dimensions
//	efdedup-bench -fig fig5a -quick   # one figure, CI-sized
//	efdedup-bench -fig all -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"efdedup/internal/experiments"
	"efdedup/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		fig            = flag.String("fig", "all", "figure ID (fig2, fig3, fig5a..fig7b) or 'all'")
		quick          = flag.Bool("quick", false, "shrink experiments to seconds (CI scale)")
		seed           = flag.Int64("seed", 1, "workload/scenario seed")
		outPath        = flag.String("out", "", "also write results to this file")
		verbose        = flag.Bool("v", true, "log per-point progress to stderr")
		breakdown      = flag.Bool("breakdown", true, "append the per-stage latency breakdown from the metrics registry")
		metricsAddr    = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address while the bench runs")
		hashWorkers    = flag.Int("hash-workers", 0, "agents' concurrent SHA-256 workers (0 = agent default)")
		lookupInflight = flag.Int("lookup-inflight", 0, "agents' overlapped index-lookup batches (0 = agent default)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		go func() {
			log.Printf("metrics server stopped: %v", metrics.ListenAndServe(*metricsAddr, metrics.Default()))
		}()
	}

	cfg := experiments.Config{
		Quick: *quick, Seed: *seed,
		HashWorkers: *hashWorkers, LookupInflight: *lookupInflight,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	var figs []*experiments.Figure
	if *fig == "all" {
		all, err := experiments.All(cfg)
		if err != nil {
			return err
		}
		figs = all
	} else {
		one, err := experiments.Run(*fig, cfg)
		if err != nil {
			return err
		}
		figs = []*experiments.Figure{one}
	}
	for _, f := range figs {
		fmt.Fprintln(out, f.Format())
	}
	if *breakdown {
		// Every agent, kv node and cloud store the experiments
		// spun up recorded into the process-global registry; this is the
		// run's own Fig. 5-style per-stage latency profile.
		fmt.Fprintln(out, "per-stage breakdown (process-wide metrics registry):")
		metrics.Default().WriteBreakdown(out)
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "regenerated %d figure(s) in %v (quick=%v, seed=%d)\n",
		len(figs), time.Since(start).Round(time.Millisecond), *quick, *seed)
	return nil
}
