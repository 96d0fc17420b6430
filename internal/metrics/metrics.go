// Package metrics is EF-dedup's dependency-free instrumentation layer: a
// registry of atomic counters, gauges and log-linear-bucket histograms,
// plus a lightweight span API for timing a chunk batch's path through the
// dedup pipeline.
//
// The paper's evaluation (Sec. V, Figs. 5–7) is entirely about measured
// per-stage behaviour — dedup ratio, lookup overhead V(P), storage cost
// U(P), throughput under WAN latency. This package makes those same
// quantities observable on a *running* system instead of only as
// end-of-run Report totals: every hot path (agent pipeline stages,
// kvstore client/server RPCs, cloud uploads, breakers, chaos injection)
// records into a process-global registry that can be scraped as
// Prometheus text or JSON (see http.go) and printed as a per-stage
// breakdown (WriteBreakdown).
//
// Conventions (see DESIGN.md §8):
//
//   - names are snake_case with a component prefix and a unit suffix:
//     agent_lookup_seconds, kvstore_client_rpc_seconds, ..._total for
//     counters, plain nouns for gauges;
//   - label sets are small and fixed at instrumentation sites, written
//     as ("k", "v") pairs: Counter("x_total", "method", "kv.get");
//   - metrics are process-global and cumulative: two clusters in one
//     process aggregate into the same series (exactly what a daemon —
//     one component per process — wants, and what tests tolerate).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored so a
// counter can never go backwards).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. All methods are safe for concurrent use;
// fetching an existing name returns the same instance, so concurrently
// created components aggregate instead of colliding.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-global registry every component records
// into unless configured otherwise.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Key formats a metric identity from a name and ("k", "v") label pairs:
// name{k="v",k2="v2"}. Labels are sorted by key so call sites need not
// agree on order. A trailing odd label is ignored.
func Key(name string, labels ...string) string {
	if len(labels) < 2 {
		return name
	}
	n := len(labels) / 2 * 2
	type kv struct{ k, v string }
	pairs := make([]kv, 0, n/2)
	for i := 0; i+1 < n; i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// baseName strips the label block from a metric key.
func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := Key(name, labels...)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[key]; ok {
		return c
	}
	c = &Counter{}
	r.counters[key] = c
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := Key(name, labels...)
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[key]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[key] = g
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time (breaker
// states, queue depths — anything already tracked elsewhere). Registering
// the same name again replaces the callback, so a restarted component
// (common in tests) reports its current instance, not a dead one.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if fn == nil {
		return
	}
	key := Key(name, labels...)
	r.mu.Lock()
	r.gaugeFuncs[key] = fn
	r.mu.Unlock()
}

// Histogram returns (creating on first use) the named value histogram
// (batch sizes, byte counts — anything unit-less or integral).
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.histogram(name, 1, labels...)
}

// DurationHistogram returns (creating on first use) the named latency
// histogram: observations are nanoseconds (ObserveDuration/Since), and
// snapshots/exports are scaled to seconds per Prometheus convention.
func (r *Registry) DurationHistogram(name string, labels ...string) *Histogram {
	return r.histogram(name, 1e-9, labels...)
}

func (r *Registry) histogram(name string, scale float64, labels ...string) *Histogram {
	key := Key(name, labels...)
	r.mu.RLock()
	h, ok := r.histograms[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[key]; ok {
		return h
	}
	h = newHistogram(scale)
	r.histograms[key] = h
	return h
}

// Snapshot is one metric's exported state.
type Snapshot struct {
	// Key is the full identity (name plus label block).
	Key string
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	// Value holds counter and gauge readings.
	Value float64
	// Hist holds histogram readings (Kind == "histogram").
	Hist HistSnapshot
}

// Snapshots returns every metric's current state, sorted by key.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.RLock()
	out := make([]Snapshot, 0,
		len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.histograms))
	for k, c := range r.counters {
		out = append(out, Snapshot{Key: k, Kind: "counter", Value: float64(c.Value())})
	}
	for k, g := range r.gauges {
		out = append(out, Snapshot{Key: k, Kind: "gauge", Value: float64(g.Value())})
	}
	fns := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, fn := range r.gaugeFuncs {
		fns[k] = fn
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, h := range r.histograms {
		hists[k] = h
	}
	r.mu.RUnlock()
	// Callbacks and histogram snapshots run outside the registry lock: a
	// gauge func may itself take locks (breaker state) or read metrics.
	for k, fn := range fns {
		out = append(out, Snapshot{Key: k, Kind: "gauge", Value: fn()})
	}
	for k, h := range hists {
		out = append(out, Snapshot{Key: k, Kind: "histogram", Hist: h.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// String implements fmt.Stringer with a compact debugging dump.
func (r *Registry) String() string {
	var b strings.Builder
	for _, s := range r.Snapshots() {
		switch s.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%s: count=%d p50=%g p99=%g\n", s.Key, s.Hist.Count, s.Hist.P50, s.Hist.P99)
		default:
			fmt.Fprintf(&b, "%s: %g\n", s.Key, s.Value)
		}
	}
	return b.String()
}
