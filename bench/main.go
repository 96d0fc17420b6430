// Command bench is the repository's end-to-end benchmark with per-layer
// attribution. See README.md beside it for the workloads, the metrics
// and how they were chosen; BENCHMARK.json at the repository root is
// its contract with later changes.
//
// With -workload it makes one run and prints one JSON result as the
// last line of standard output (-trace 0: the end-to-end metrics,
// -trace 1: the per-layer metrics). Without, it makes every run of
// every workload, each in a process of its own, and prints all metrics
// by name and unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
// scale-1 stream counts in workloads.go were sized for on the 2-core
// box. Work is a fixed count of streams, so counts repeat exactly;
// -seconds scales the count, not a deadline.
const runSeconds = 15

// info prints a line of commentary; results go to standard output.
func info(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its JSON result (default: all, one process each)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs and the task order")
		seconds      = flag.Float64("seconds", runSeconds, "measuring time the stream counts are sized for")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		scale        = flag.Float64("scale", 1, "multiplies every stream count (tests use ~0.01)")
		dir          = flag.String("dir", "", "where durable-fresh keeps its WALs and the isolated rows their files (default <out>/data)")
		out          = flag.String("out", filepath.Join("bench", "out"), "where trace files are written")
		repeat       = flag.Int("repeat", 1, "all-workloads mode: how many full sets to run")
		check        = flag.Bool("check", false, "all-workloads mode: fail if two sets disagree by more than a metric's bound")
		update       = flag.Bool("update", false, "all-workloads mode: write medians and spreads to bench/baseline.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *scale <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *dir == "" {
		*dir = filepath.Join(*out, "data")
	}
	if *workloadName == "" {
		os.Exit(runAll(suite{seed: *seed, seconds: *seconds, scale: *scale, dir: *dir, out: *out,
			repeat: *repeat, check: *check, update: *update}))
	}
	sp := specByName(*workloadName)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	// Whatever ran before (a build, a traced run's file rows) may have
	// left dirty pages and journal commits behind; written back during
	// this run they cost the 2-core box up to a fifth of a CPU-bound
	// phase. Flush them first.
	syscall.Sync()
	info("%s seed=%d clients=%d GOMAXPROCS=%d NumCPU=%d %s dir=%s", sp.name, *seed, clients,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), *dir)
	cfg := config{sp: sp, seed: *seed, scale: *scale * *seconds / runSeconds, dir: *dir, out: *out}
	run, defs := endToEnd, endToEndMetrics
	if *trace == 1 {
		run, defs = traced, perLayerMetrics
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	// A run at full scale owes every declared metric; a scaled-down one
	// may lack the tail percentile.
	if len(res.Metrics) < len(defs) && cfg.scale >= 1 {
		fmt.Fprintf(os.Stderr, "bench %s: %d of %d declared metrics measured\n", sp.name, len(res.Metrics), len(defs))
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
