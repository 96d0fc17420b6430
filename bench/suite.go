package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// suite is the all-workloads mode: every run of every workload, each in
// a process of its own (so no run inherits another's heap, pools or
// page cache state), exactly as BENCHMARK.json's command makes them.
type suite struct {
	seed           int64
	seconds, scale float64
	dir, out       string
	repeat         int
	check, update  bool
}

// baselinePath is where -update records what this machine measured.
var baselinePath = filepath.Join("bench", "baseline.json")

// baselineEntry is one metric of one workload over the sets run.
type baselineEntry struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (max-min)/median over the sets
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runOne makes one run in a child process and parses its last line.
func (s suite) runOne(sp *spec, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", sp.name, "-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(s.seconds),
		"-scale", fmt.Sprint(s.scale), "-trace", fmt.Sprint(trace), "-dir", s.dir, "-out", s.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s -trace %d: %w", sp.name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s -trace %d: result line: %w", sp.name, trace, err)
	}
	return &res, nil
}

func runAll(s suite) int {
	// values[workload][metric] holds one value per set.
	values := make(map[string]map[string][]float64)
	ok := true
	for set := 0; set < s.repeat; set++ {
		for _, sp := range specs {
			if values[sp.name] == nil {
				values[sp.name] = make(map[string][]float64)
			}
			for trace := 0; trace <= 1; trace++ {
				res, err := s.runOne(sp, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				ok = ok && res.Correct
				for name, v := range res.Metrics {
					values[sp.name][name] = append(values[sp.name][name], v.Value)
				}
			}
		}
	}

	baseline := make(map[string]map[string]baselineEntry)
	for _, sp := range specs {
		fmt.Printf("\n%s — %s\n", sp.name, sp.why)
		baseline[sp.name] = make(map[string]baselineEntry)
		for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
			vs := values[sp.name][d.Name]
			if len(vs) == 0 {
				continue
			}
			e := baselineEntry{Median: median(vs), Unit: d.Unit, Values: vs}
			if e.Median != 0 {
				e.Spread = (quantile(vs, 1) - quantile(vs, 0)) / e.Median
			}
			baseline[sp.name][d.Name] = e
			var cells []string
			for _, v := range vs {
				cells = append(cells, fmt.Sprintf("%12.4f", v))
			}
			verdict := ""
			if d.Bound > 0 && s.check && len(vs) >= 2 && worseBy(d, vs[0], vs[1]) > d.Bound {
				verdict = fmt.Sprintf("  DISAGREE by %.1f%% (bound %.1f%%)", 100*worseBy(d, vs[0], vs[1]), 100*d.Bound)
				ok = false
			}
			fmt.Printf("  %-42s %s %-6s%s\n", d.Name, strings.Join(cells, " "), d.Unit, verdict)
		}
		if in, out := values[sp.name]["ingest_mbps"], values[sp.name]["process.boundary_ingest_mbps"]; len(in) > 0 && len(out) > 0 {
			fmt.Printf("  trace_overhead_pct %.1f (boundary run, first tenth of the streams, vs the untraced run)\n", 100*(1-out[0]/in[0]))
		}
	}
	if s.update {
		data, err := json.MarshalIndent(baseline, "", "  ")
		if err == nil {
			err = os.WriteFile(baselinePath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", baselinePath, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// worseBy is how much the worse of two sets' values falls short of the
// better one, as a share of the better: two runs of the same code have
// no "before", so either may be the reference.
func worseBy(d metricDef, a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if lo <= 0 {
		return 0
	}
	if d.Better == higher {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}
