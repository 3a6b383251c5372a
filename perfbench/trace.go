package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one call from the benchmark into an exported function of a
// layer: its name, when it started and ended (nanoseconds since the
// trace began), the span that issued it (0 for none) and the benchmark
// op it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span opened as id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call records fn as one span and returns its id.
func (t *tracer) call(name string, parent, op int64, fn func()) int64 {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	return id
}

// selfTimes returns, for every span id, its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (parallel calls) or reach past the parent; only the covered part of
// the parent's own interval is subtracted, once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int {
			switch {
			case a[0] < b[0]:
				return -1
			case a[0] > b[0]:
				return 1
			}
			return 0
		})
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName returns the self times of all spans with the given name.
func (t *tracer) selfByName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, self[s.ID])
		}
	}
	return out
}

// selfOf returns the self times of the given spans.
func (t *tracer) selfOf(ids []int64) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := make([]time.Duration, len(ids))
	for i, id := range ids {
		out[i] = self[id]
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
