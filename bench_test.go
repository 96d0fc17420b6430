// Root benchmark harness: one testing.B benchmark per figure of the
// paper's evaluation (Sec. V). Each benchmark regenerates its figure at CI
// scale and reports the figure's headline quantities as custom benchmark
// metrics, so `go test -bench=. -benchmem` doubles as a regression check
// on the reproduced shapes. Full-size figures come from
// `go run ./cmd/efdedup-bench -fig all`.
package efdedup_test

import (
	"testing"

	"efdedup"
	"efdedup/internal/experiments"
)

func benchCfg() experiments.Config {
	return experiments.Config{Quick: true, Seed: 1}
}

// runFig regenerates a figure once per iteration.
func runFig(b *testing.B, id string) *experiments.Figure {
	b.Helper()
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// lastY returns the final point of a named series.
func lastY(b *testing.B, fig *experiments.Figure, name string) float64 {
	b.Helper()
	s := fig.Get(name)
	if s == nil || len(s.Y) == 0 {
		b.Fatalf("%s: series %q missing", fig.ID, name)
	}
	return s.Y[len(s.Y)-1]
}

// BenchmarkFig2Estimation regenerates Fig. 2 (measured vs estimated dedup
// ratios) and reports the fit quality.
func BenchmarkFig2Estimation(b *testing.B) {
	fig := runFig(b, "fig2")
	// Mean relative error over the combination grid.
	meas, est := fig.Get("measured"), fig.Get("estimated")
	sum := 0.0
	for i := range meas.Y {
		d := est.Y[i]/meas.Y[i] - 1
		if d < 0 {
			d = -d
		}
		sum += d
	}
	b.ReportMetric(sum/float64(len(meas.Y))*100, "fit-err-%")
}

// BenchmarkFig3WarmStart regenerates Fig. 3 and reports the warm-start
// speedup in fit sweeps.
func BenchmarkFig3WarmStart(b *testing.B) {
	fig := runFig(b, "fig3")
	sweeps := fig.Get("fit sweeps")
	b.ReportMetric(sweeps.Y[0], "cold-sweeps")
	b.ReportMetric(sweeps.Y[len(sweeps.Y)-1], "warm-sweeps")
}

// BenchmarkFig5aThroughput regenerates Fig. 5(a) and reports the final
// smart-vs-cloud throughput ratios on dataset 1.
func BenchmarkFig5aThroughput(b *testing.B) {
	fig := runFig(b, "fig5a")
	smart := lastY(b, fig, "smart/accel")
	b.ReportMetric(smart/lastY(b, fig, "cloud-assisted/accel"), "x-vs-assisted")
	b.ReportMetric(smart/lastY(b, fig, "cloud-only/accel"), "x-vs-cloudonly")
}

// BenchmarkFig5bLatency regenerates Fig. 5(b) and reports how much smart's
// lead widens from the lowest to the highest WAN RTT.
func BenchmarkFig5bLatency(b *testing.B) {
	fig := runFig(b, "fig5b")
	smart, assisted := fig.Get("smart"), fig.Get("cloud-assisted")
	leadLow := smart.Y[0] / assisted.Y[0]
	leadHigh := smart.Y[len(smart.Y)-1] / assisted.Y[len(assisted.Y)-1]
	b.ReportMetric(leadHigh/leadLow, "lead-widening")
}

// BenchmarkFig5cRatio regenerates Fig. 5(c) and reports how close one-ring
// SMART gets to the cloud dedup-ratio bound.
func BenchmarkFig5cRatio(b *testing.B) {
	fig := runFig(b, "fig5c")
	b.ReportMetric(lastY(b, fig, "smart")/lastY(b, fig, "cloud bound")*100, "pct-of-bound")
}

// BenchmarkFig6aTradeoff regenerates Fig. 6(a) and reports the span of the
// two cost curves across ring counts.
func BenchmarkFig6aTradeoff(b *testing.B) {
	fig := runFig(b, "fig6a")
	storage, network := fig.Get("storage U"), fig.Get("network V")
	b.ReportMetric(storage.Y[len(storage.Y)-1]/storage.Y[0], "storage-growth")
	if network.Y[len(network.Y)-1] > 0 {
		b.ReportMetric(network.Y[0]/network.Y[len(network.Y)-1], "network-growth")
	}
}

// BenchmarkFig6bCrossover regenerates Fig. 6(b) and reports the
// large-ring/small-ring throughput ratio at the lowest and highest
// inter-edge-cloud RTT.
func BenchmarkFig6bCrossover(b *testing.B) {
	fig := runFig(b, "fig6b")
	for i, s := range fig.Series {
		unit := "big/small-lowRTT"
		if i == len(fig.Series)-1 {
			unit = "big/small-highRTT"
		} else if i > 0 {
			continue
		}
		b.ReportMetric(s.Y[len(s.Y)-1]/s.Y[0], unit)
	}
}

// BenchmarkFig6cAblation regenerates Fig. 6(c) and reports the baselines'
// cost multiples over SMART (paper: 1.26x / 1.31x).
func BenchmarkFig6cAblation(b *testing.B) {
	fig := runFig(b, "fig6c")
	agg := fig.Get("aggregate cost")
	b.ReportMetric(agg.Y[1]/agg.Y[0], "netonly-x")
	b.ReportMetric(agg.Y[2]/agg.Y[0], "deduponly-x")
}

// BenchmarkFig7aScale regenerates Fig. 7(a) and reports SMART's cost
// saving over the baselines at the largest simulated scale.
func BenchmarkFig7aScale(b *testing.B) {
	fig := runFig(b, "fig7a")
	smart := lastY(b, fig, "smart")
	b.ReportMetric((1-smart/lastY(b, fig, "network-only"))*100, "save-vs-net-%")
	b.ReportMetric((1-smart/lastY(b, fig, "dedup-only"))*100, "save-vs-dedup-%")
}

// BenchmarkFig7bAlpha regenerates Fig. 7(b) and reports how SMART's
// network cost shrinks as α grows.
func BenchmarkFig7bAlpha(b *testing.B) {
	fig := runFig(b, "fig7b")
	v := fig.Get("smart network V")
	if v.Y[len(v.Y)-1] > 0 {
		b.ReportMetric(v.Y[0]/v.Y[len(v.Y)-1], "V-shrink")
	}
}

// BenchmarkExtChunking regenerates the variable-chunking extension figure
// and reports the CDC advantage after a prefix shift.
func BenchmarkExtChunking(b *testing.B) {
	fig := runFig(b, "ext-cdc")
	fixed, gear := fig.Get("fixed"), fig.Get("gear-cdc")
	last := len(fixed.Y) - 1
	b.ReportMetric(gear.Y[last]/fixed.Y[last], "cdc-advantage")
}

// BenchmarkPublicPartitionSMART measures the production solver on a
// mid-size instance through the public API.
func BenchmarkPublicPartitionSMART(b *testing.B) {
	sys, err := efdedup.BuildSimSystem(efdedup.NewSimScenario(60, 0.001, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := efdedup.Partition(efdedup.SMART, sys, 10); err != nil {
			b.Fatal(err)
		}
	}
}
