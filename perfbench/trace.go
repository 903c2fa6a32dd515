package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so code shared with untraced runs may call
// it freely; span durations are measured either way.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// span is one harness call into a layer: its name, when it started and
// ended (seconds since the tracer started), the span that caused it, and
// the root span of the request it belongs to.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Root   int     `json:"root"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// spanRef is an open span; the zero value is "no parent".
type spanRef struct {
	tr    *tracer
	id    int
	root  int
	start time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (the zero spanRef for a root span).
func (t *tracer) start(name string, parent spanRef) spanRef {
	now := time.Now()
	if t == nil {
		return spanRef{start: now}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := parent.root
	if parent.id == 0 {
		root = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Root: root, Name: name,
		Start: now.Sub(t.t0).Seconds()})
	return spanRef{tr: t, id: id, root: root, start: now}
}

// end closes the span and returns its duration in seconds.
func (s spanRef) end() float64 {
	now := time.Now()
	if s.tr != nil {
		s.tr.mu.Lock()
		s.tr.spans[s.id-1].End = now.Sub(s.tr.t0).Seconds()
		s.tr.mu.Unlock()
	}
	return now.Sub(s.start).Seconds()
}

// finish returns the recorded spans with their self times: a span's
// duration minus the part its child spans cover. Children of one span run
// one after another, so their durations add.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	child := make([]float64, len(out)+1)
	for _, s := range out {
		child[s.Parent] += s.End - s.Start
	}
	for i := range out {
		out[i].Self = out[i].End - out[i].Start - child[out[i].ID]
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	name        string
	self, total float64
	calls       int
}

// selfTimes sums self and total time per span name, largest self first.
func selfTimes(spans []span) []spanTotal {
	idx := map[string]int{}
	var out []spanTotal
	for _, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, spanTotal{name: s.Name})
		}
		out[k].self += s.Self
		out[k].total += s.End - s.Start
		out[k].calls++
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}
