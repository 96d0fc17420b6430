package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the in-memory span buffer (~100 B each); spans past
// it are counted as dropped instead of growing the heap under the
// workload being measured.
const maxSpans = 1 << 20

// span is one timed call into a layer, recorded from outside it. Name
// is "<layer>.<operation>"; spans of one stream share Stream; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID, Parent int
	Stream     int
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Items      int
	Bytes      int64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module the span was recorded around.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its ID (0 when dropped).
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span; the returned function closes it with its counts.
// The ID is assigned at begin so children can name their parent.
func (t *tracer) begin(name string, parent, stream int) (id int, end func(items int, bytes int64)) {
	id = t.add(span{Parent: parent, Stream: stream, Name: name, Start: t.now()})
	return id, func(items int, bytes int64) {
		if id == 0 {
			return
		}
		now := t.now()
		t.mu.Lock()
		s := &t.spans[id-1]
		s.End, s.Items, s.Bytes = now, items, bytes
		t.mu.Unlock()
	}
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (children may overlap each
// other, so the union is subtracted, not the sum).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, cursor), min(k.End, s.End)
			if to > from {
				covered += to - from
				cursor = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSelfTimes sums self time per layer over the spans that descend
// from a root whose name is rootName.
func layerSelfTimes(spans []span, rootName string) map[string]time.Duration {
	self := selfTimes(spans)
	under := make(map[int]bool)
	out := make(map[string]time.Duration)
	for _, s := range spans { // parents precede children: IDs are assigned at begin
		if (s.Parent == 0 && s.Name == rootName) || under[s.Parent] {
			under[s.ID] = true
			out[s.layer()] += self[s.ID]
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event array (load it
// in chrome://tracing or Perfetto). One row per stream.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := t.snapshot()
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Stream,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "items": s.Items, "bytes": s.Bytes},
		}
	}
	data, err := json.Marshal(events)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
