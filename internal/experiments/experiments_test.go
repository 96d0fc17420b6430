package experiments

import (
	"math"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

func TestFigureFormatAndGet(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2}, Y: []float64{30}},
		},
		Notes: []string{"hello"},
	}
	out := fig.Format()
	for _, want := range []string{"figX", "demo", "a", "b", "hello", "10", "30"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	// Missing point renders as '-'.
	if !strings.Contains(out, "-") {
		t.Error("missing point not rendered as '-'")
	}
	if fig.Get("a") == nil || fig.Get("nope") != nil {
		t.Error("Get misbehaves")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("fig99", quickCfg()); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "ext-cdc"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
}

func TestFig2Quick(t *testing.T) {
	fig, err := Fig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig2 has %d series", len(fig.Series))
	}
	if len(fig.Series[0].Y) != 9 { // 3x3 quick grid
		t.Errorf("fig2 measured %d combos, want 9", len(fig.Series[0].Y))
	}
	for _, r := range fig.Series[0].Y {
		if r < 1 {
			t.Errorf("measured ratio %v < 1", r)
		}
	}
}

func TestFig3Quick(t *testing.T) {
	fig, err := Fig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	sweeps := fig.Get("fit sweeps")
	if sweeps == nil || len(sweeps.Y) != 2 {
		t.Fatalf("fig3 sweeps series missing: %+v", fig.Series)
	}
	if sweeps.Y[1] > sweeps.Y[0] {
		t.Errorf("warm start did not reduce sweeps: %v", sweeps.Y)
	}
}

// TestFig5aQuick checks the paper's headline at quick scale: SMART's
// throughput is above cloud-assisted's and near cloud-only's. Each mode
// counts with the better of two repetitions, because a single run's
// throughput moves with the host's load: over 20 single runs the
// smart/cloud-assisted ratio ranged 1.03-1.35 with the test alone and
// 0.98-1.36 beside a `go test ./...`, where one run in 20 inverted it.
func TestFig5aQuick(t *testing.T) {
	var smart, assisted, only float64
	for rep := 0; rep < 2; rep++ {
		fig, err := Fig5a(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) != 6 { // 3 modes x 2 datasets
			t.Fatalf("fig5a has %d series, want 6", len(fig.Series))
		}
		s, a, o := fig.Get("smart/accel"), fig.Get("cloud-assisted/accel"), fig.Get("cloud-only/accel")
		if s == nil || a == nil || o == nil {
			t.Fatal("missing series")
		}
		last := len(s.Y) - 1
		smart, assisted, only = math.Max(smart, s.Y[last]), math.Max(assisted, a.Y[last]), math.Max(only, o.Y[last])
	}
	t.Logf("smart %.2f, cloud-assisted %.2f, cloud-only %.2f MB/s: smart/assisted %.3f", smart, assisted, only, smart/assisted)
	if smart <= assisted {
		t.Errorf("smart %.1f MB/s not above cloud-assisted %.1f MB/s", smart, assisted)
	}
	// At quick scale (tiny files) per-RPC latency blunts smart's edge over
	// cloud-only; the full-size run shows the paper's clear win. Require
	// rough parity here.
	if smart < only*0.7 {
		t.Errorf("smart %.1f MB/s far below cloud-only %.1f MB/s", smart, only)
	}
}

// TestFig5bQuick checks the shape of the paper's Fig. 5(b): SMART's lead
// over cloud-assisted widens with the WAN RTT. Each mode counts with the
// better of two repetitions at each RTT point, for the reason given at
// TestFig5aQuick: a single run's throughput moves with the host's load.
func TestFig5bQuick(t *testing.T) {
	var smart, assisted []float64
	for rep := 0; rep < 2; rep++ {
		fig, err := Fig5b(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		s, a := fig.Get("smart"), fig.Get("cloud-assisted")
		if s == nil || a == nil {
			t.Fatal("missing series")
		}
		if rep == 0 {
			smart, assisted = make([]float64, len(s.Y)), make([]float64, len(a.Y))
		}
		for i := range smart {
			smart[i], assisted[i] = math.Max(smart[i], s.Y[i]), math.Max(assisted[i], a.Y[i])
		}
	}
	leadLow := smart[0] / assisted[0]
	leadHigh := smart[len(smart)-1] / assisted[len(assisted)-1]
	t.Logf("smart/cloud-assisted lead %.3f -> %.3f", leadLow, leadHigh)
	if leadHigh <= leadLow {
		t.Errorf("smart lead did not widen with RTT: %.2f -> %.2f", leadLow, leadHigh)
	}
}

func TestFig5cQuick(t *testing.T) {
	fig, err := Fig5c(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	smart := fig.Get("smart")
	bound := fig.Get("cloud bound")
	if smart == nil || bound == nil {
		t.Fatal("missing series")
	}
	for i := range smart.Y {
		if smart.Y[i] > bound.Y[i]*1.05 {
			t.Errorf("SMART ratio %.2f exceeds cloud bound %.2f", smart.Y[i], bound.Y[i])
		}
	}
	// Fewer rings (later X entries are smaller) → ratio must not fall.
	if smart.Y[len(smart.Y)-1] < smart.Y[0]-0.05 {
		t.Errorf("ratio with 1 ring (%.2f) below ratio with many rings (%.2f)",
			smart.Y[len(smart.Y)-1], smart.Y[0])
	}
}

func TestFig6aQuick(t *testing.T) {
	fig, err := Fig6a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	storage := fig.Get("storage U")
	network := fig.Get("network V")
	if storage == nil || network == nil {
		t.Fatal("missing series")
	}
	// Storage rises with ring count; network falls.
	n := len(storage.Y)
	if storage.Y[n-1] < storage.Y[0] {
		t.Errorf("storage cost not increasing with rings: %v", storage.Y)
	}
	if network.Y[n-1] > network.Y[0] {
		t.Errorf("network cost not decreasing with rings: %v", network.Y)
	}
}

func TestFig6bQuick(t *testing.T) {
	fig, err := Fig6b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig6b has %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			t.Fatalf("series %s empty", s.Name)
		}
	}
}

func TestFig6cQuick(t *testing.T) {
	fig, err := Fig6c(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	agg := fig.Get("aggregate cost")
	if agg == nil || len(agg.Y) != 3 {
		t.Fatal("missing aggregate series")
	}
	// SMART (index 0) must not exceed either ablation.
	if agg.Y[0] > agg.Y[1]*1.01 || agg.Y[0] > agg.Y[2]*1.01 {
		t.Errorf("SMART cost %v above ablations %v / %v", agg.Y[0], agg.Y[1], agg.Y[2])
	}
}

func TestFig7aQuick(t *testing.T) {
	fig, err := Fig7a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	smart := fig.Get("smart")
	if smart == nil {
		t.Fatal("missing smart series")
	}
	for _, name := range []string{"network-only", "dedup-only", "random"} {
		s := fig.Get(name)
		if s == nil {
			t.Fatalf("missing %s series", name)
		}
		last := len(smart.Y) - 1
		if smart.Y[last] > s.Y[last]*1.01 {
			t.Errorf("smart cost %v above %s %v", smart.Y[last], name, s.Y[last])
		}
	}
}

func TestFig7bQuick(t *testing.T) {
	fig, err := Fig7b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	v := fig.Get("smart network V")
	if v == nil || len(v.Y) < 2 {
		t.Fatal("missing network series")
	}
	// As α rises the optimizer buys less network.
	if v.Y[len(v.Y)-1] > v.Y[0]*1.05 {
		t.Errorf("network cost did not fall with α: %v", v.Y)
	}
}

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by individual quick tests")
	}
	figs, err := All(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(Registry()) {
		t.Fatalf("All returned %d figures, want %d", len(figs), len(Registry()))
	}
	for _, f := range figs {
		if out := f.Format(); len(out) == 0 {
			t.Errorf("%s formats empty", f.ID)
		}
	}
}

func TestExtChunkingQuick(t *testing.T) {
	fig, err := ExtChunking(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	fixed := fig.Get("fixed")
	gear := fig.Get("gear-cdc")
	if fixed == nil || gear == nil {
		t.Fatal("missing series")
	}
	// At zero shift both find the duplicate copy (≈2x).
	if fixed.Y[0] < 1.9 || gear.Y[0] < 1.9 {
		t.Errorf("zero-shift ratios fixed=%.2f gear=%.2f, want ≈2", fixed.Y[0], gear.Y[0])
	}
	// After a shift, fixed collapses to ≈1 while CDC stays near 2.
	last := len(fixed.Y) - 1
	if fixed.Y[last] > 1.1 {
		t.Errorf("shifted fixed ratio %.2f, want ≈1 (alignment destroyed)", fixed.Y[last])
	}
	if gear.Y[last] < 1.7 {
		t.Errorf("shifted gear ratio %.2f, want ≈2 (boundaries content-defined)", gear.Y[last])
	}
}
