package efdedup

import (
	"io"
	"net/http"

	"efdedup/internal/metrics"
)

// This file exposes the observability layer: the process-global metrics
// registry every component (agents, kv nodes, cloud store, netem)
// records into, and the HTTP surface the daemons mount on
// -metrics-addr. Embedders use it to scrape their own processes or to
// print per-stage breakdowns after a run, the way efdedup-bench does.

type (
	// MetricsRegistry holds counters, gauges and log-linear-bucket
	// latency histograms; all operations are lock-free on the hot path.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is one exported series (counter, gauge or
	// histogram with quantiles).
	MetricsSnapshot = metrics.Snapshot
	// LatencyHistogram records values into log-linear buckets and
	// reports p50/p90/p95/p99 with bounded relative error.
	LatencyHistogram = metrics.Histogram
)

// Metrics returns the process-global registry all efdedup components
// record into.
func Metrics() *MetricsRegistry { return metrics.Default() }

// NewMetricsRegistry builds an isolated registry (tests, embedders that
// scope metrics per subsystem).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsHandler serves the registry as Prometheus text (default) or
// JSON (?format=json / Accept: application/json).
func MetricsHandler(r *MetricsRegistry) http.Handler { return metrics.Handler(r) }

// MetricsMux is the full observability mux daemons mount on
// -metrics-addr: /metrics, /metrics.json and net/http/pprof under
// /debug/pprof/.
func MetricsMux(r *MetricsRegistry) *http.ServeMux { return metrics.NewMux(r) }

// ServeMetrics serves the observability mux on addr until the listener
// fails; run it in a goroutine.
func ServeMetrics(addr string, r *MetricsRegistry) error {
	return metrics.ListenAndServe(addr, r)
}

// WriteMetricsBreakdown prints the human-readable per-stage latency
// breakdown (count/mean/p50/p95/p99/max per histogram, then non-zero
// scalars) — the table efdedup-bench appends to its figure output.
func WriteMetricsBreakdown(w io.Writer, r *MetricsRegistry) { r.WriteBreakdown(w) }
