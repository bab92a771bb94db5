package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// request ID; a span's layer is its name up to the first dot.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Req    string         `json:"request_id,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps a pass's spans in memory until the benchmark writes them
// out. A nil *tracer is tracing turned off: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID (0 when off).
func (t *tracer) begin(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Req: req})
	return len(t.spans)
}

// finish closes the span opened by begin, attaching attrs.
func (t *tracer) finish(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attrs = attrs
}

// add records a span whose interval is already known and returns its ID.
func (t *tracer) add(parent int, name, req string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Attrs: attrs,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// graft adds spans recorded by a child process whose clock started at
// childEpoch, renumbered into this tracer under parent.
func (t *tracer) graft(parent int, childEpoch time.Time, spans []span) {
	if t == nil {
		return
	}
	shift := childEpoch.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := map[int]int{0: parent}
	for _, s := range spans {
		s.Start += shift
		s.End += shift
		ids[s.ID] = len(t.spans) + 1
		s.ID = len(t.spans) + 1
		s.Parent = ids[s.Parent]
		t.spans = append(t.spans, s)
	}
}

// selfTimeMs sums each layer's self time: a span's duration minus the part
// of it its children cover (children may overlap, as concurrent requests
// under one window do).
func (t *tracer) selfTimeMs() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// coverage is the length of the union of the children's intervals, clipped
// to the parent's.
func coverage(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	return total + curEnd - curStart
}

// writeTrace writes every traced workload's spans to path as one JSON
// object keyed by workload.
func writeTrace(path string, reports []*report) error {
	doc := map[string][]span{}
	for _, r := range reports {
		doc[r.name] = r.spans
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
