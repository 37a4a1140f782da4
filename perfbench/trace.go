package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op; a
// root span has parent -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them once the run ends. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id; end closes it.
func (t *tracer) start(name string, parent int, opID int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: opID, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, opID int64, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	id := t.start(name, parent, opID)
	fn()
	t.end(id)
	return t.get(id).dur()
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// sumByName totals the durations of every span with the given name.
func (t *tracer) sumByName(name string) time.Duration {
	var d time.Duration
	for _, s := range t.all() {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns, per span name, the total time spans of that name were
// open minus the part of it their children covered.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	flush := func() {
		if hi > lo {
			total += hi - lo
		}
	}
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			flush()
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	flush()
	return time.Duration(total)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
