package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smokeScale runs every workload at about a hundredth of its size.
const smokeScale = 0.01

func smokeConfig(t *testing.T, sp *spec) config {
	return config{sp: sp, seed: 1, scale: smokeScale, dir: t.TempDir(), out: t.TempDir()}
}

// checkNames fails unless got is exactly the declared metrics, allowing
// only the tail percentile to be absent (a scaled-down run has too few
// samples for it, and it is omitted rather than invented).
func checkNames(t *testing.T, got map[string]value, defs []metricDef) {
	t.Helper()
	declared := make(map[string]metricDef)
	for _, d := range defs {
		declared[d.Name] = d
		if _, ok := got[d.Name]; !ok && d.Name != "stream_p95_ms" {
			t.Errorf("declared metric %s was not emitted", d.Name)
		}
	}
	for name, v := range got {
		d, ok := declared[name]
		if !ok {
			t.Errorf("emitted metric %s is not declared", name)
		} else if v.Unit != d.Unit {
			t.Errorf("metric %s emitted in %q, declared in %q", name, v.Unit, d.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s is %v", name, v.Value)
		}
	}
}

// TestSmoke keeps the benchmark from rotting: every workload, untraced
// and traced, small; the oracle must pass and the metrics emitted must
// be the metrics declared.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := endToEnd(smokeConfig(t, sp))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkNames(t, res.Metrics, endToEndMetrics)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v: a bounded metric may never be 0", name, v.Value)
				}
			}

			cfg := smokeConfig(t, sp)
			res, err = traced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkNames(t, res.Metrics, perLayerMetrics)
			if got := res.Metrics["transport.conn_writes_per_call"].Value; got != 4 {
				t.Errorf("transport.conn_writes_per_call = %v, want 4 (header and payload, each way)", got)
			}
			if got := res.Metrics["cloudstore.restore_fallback_chunks"].Value; got != 0 {
				t.Errorf("cloudstore.restore_fallback_chunks = %v after FlushContainers, want 0", got)
			}
			var events []map[string]any
			data, err := os.ReadFile(cfg.out + "/trace-" + sp.name + ".json")
			if err == nil {
				err = json.Unmarshal(data, &events)
			}
			if err != nil || len(events) == 0 {
				t.Errorf("trace file: %d events, err %v", len(events), err)
			}
		})
	}
}

// TestContract compares BENCHMARK.json with what the program declares,
// in both directions.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program was sized for %d", contract.RunSeconds, runSeconds)
	}
	if len(contract.Paths) != 1 || contract.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", contract.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(contract.Workloads) != len(specs) {
		t.Errorf("%d workloads declared, %d implemented", len(contract.Workloads), len(specs))
	}
	for i, w := range contract.Workloads {
		if i < len(specs) && (w.Name != specs[i].name || w.Why != specs[i].why) {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	for _, pair := range []struct {
		kind     string
		declared []metricDef
		program  []metricDef
	}{{"end_to_end", contract.EndToEnd, endToEndMetrics}, {"per_layer", contract.PerLayer, perLayerMetrics}} {
		if len(pair.declared) != len(pair.program) {
			t.Errorf("%s: %d declared, %d in the program", pair.kind, len(pair.declared), len(pair.program))
			continue
		}
		for i, d := range pair.declared {
			if d != pair.program[i] {
				t.Errorf("%s[%d]: declared %+v, program has %+v", pair.kind, i, d, pair.program[i])
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", pair.kind, d.Name)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1: rank must sort
	}
	if got := median(xs); got != 100 {
		t.Errorf("median of 1..200 = %v, want 100 (nearest rank)", got)
	}
	if got, ok := p95(xs); !ok || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want the observed 190", got, ok)
	}
	if _, ok := p95(xs[:199]); ok {
		t.Error("p95 of 199 samples reported; fewer than ten samples lie beyond it")
	}
	if got := quantile([]float64{3, 1, 2}, 1); got != 3 {
		t.Errorf("max of {3,1,2} = %v", got)
	}
}

func TestSegmentRates(t *testing.T) {
	// Ten 1000-byte calls, one completing every 10 ms, except that the
	// fifth stalls for a second: only its segment's rate suffers.
	var calls []call
	at := time.Duration(0)
	for i := 0; i < 10; i++ {
		at += 10 * time.Millisecond
		if i == 4 {
			at += time.Second
		}
		calls = append(calls, call{done: at, bytes: 1000})
	}
	// Hand them over out of order, as two clients would.
	calls[2], calls[7] = calls[7], calls[2]
	rates := segmentRates(calls, 5)
	if len(rates) != 5 {
		t.Fatalf("%d segments, want 5", len(rates))
	}
	if got := median(rates); math.Abs(got-100_000) > 1 {
		t.Errorf("median segment rate %v B/s, want 100000: the stall must not move it", got)
	}
	if rates[2] > 2000 {
		t.Errorf("the stalled segment ran at %v B/s", rates[2])
	}
	if got := segmentRates(calls[:3], 5); len(got) != 3 {
		t.Errorf("3 calls gave %d segments", len(got))
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "agent.stream", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "kvstore.BatchHas", Start: 10 * ms, End: 50 * ms},
		// Two overlapping exchanges of one fan-out: 20..40 is covered
		// once, not twice.
		{ID: 3, Parent: 2, Name: "transport.exchange", Start: 15 * ms, End: 35 * ms},
		{ID: 4, Parent: 2, Name: "transport.exchange", Start: 20 * ms, End: 40 * ms},
		{ID: 5, Parent: 1, Name: "cloudstore.PutManifest", Start: 60 * ms, End: 90 * ms},
		{ID: 6, Name: "agent.other_root", Start: 0, End: 7 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30 * ms, 2: 15 * ms, 3: 20 * ms, 4: 20 * ms, 5: 30 * ms, 6: 7 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelfTimes(spans, "agent.stream")
	if layers["agent"] != 30*ms || layers["kvstore"] != 15*ms || layers["transport"] != 40*ms || layers["cloudstore"] != 30*ms {
		t.Errorf("layer self times %v", layers)
	}
}

// TestStagedSpansExplainRoot: the staged driver is sequential, so a
// stream's child spans must add up to its root span; time they do not
// explain is a harness bug, not a product cost.
func TestStagedSpansExplainRoot(t *testing.T) {
	sp := specByName("loopback-cdc")
	cfg := smokeConfig(t, sp)
	in, err := prepare(sp, cfg.seed, cfg.scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := &meters{}
	tb, err := setUp(cfg, in, ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	tr := newTracer()
	s := newStager(sp, tr, tb, ms)
	for i, task := range in.measured {
		if _, err := s.ingest(i+1, task, in.bytesOf(task)); err != nil {
			t.Fatal(err)
		}
	}
	spans := tr.snapshot()
	children := make(map[int]time.Duration)
	for _, c := range spans {
		children[c.Parent] += c.dur()
	}
	for _, root := range spans {
		if root.Name != "agent.stream" {
			continue
		}
		if explained := float64(children[root.ID]) / float64(root.dur()); explained < 0.98 || explained > 1 {
			t.Errorf("stream %d: child spans cover %.1f%% of the %v root span, want 98-100%%", root.Stream, 100*explained, root.dur())
		}
	}
}
