package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the module's public functions (nothing is traced inside the
// program). Spans of one op share Op; Parent is the span that caused this
// one (0 for the op's root).
//
// A Standalone span is a replica: the same public function run again on the
// same inputs after its parent finished, so its cost never sits on the
// parent's clock. It is laid inside the parent's interval to attribute the
// parent's time; where replicas add up to more than the parent took they are
// clipped to it.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Op         int    `json:"op"`
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	Standalone bool   `json:"standalone,omitempty"`
}

// tracer is the in-memory span recorder; flush writes it out once the
// workload has ended.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	fill  map[int]int64 // parent id → ns of its interval already given to replicas
}

func newTracer() *tracer { return &tracer{t0: time.Now(), fill: map[int]int64{}} }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name, layer string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, StartNs: now, EndNs: -1})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// in times f as a child span of parent.
func (t *tracer) in(op, parent int, name, layer string, f func()) time.Duration {
	id := t.begin(op, parent, name, layer)
	f()
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id-1].EndNs - t.spans[id-1].StartNs)
}

// replica records a standalone measurement of d as a child of parent (which
// must have ended), placed after the replicas already attributed to it.
func (t *tracer) replica(parent int, name, layer string, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := p.StartNs + t.fill[parent]
	end := start + d.Nanoseconds()
	if end > p.EndNs {
		end = p.EndNs
	}
	if start > end {
		start = end
	}
	t.fill[parent] = end - p.StartNs
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name, Layer: layer,
		StartNs: start, EndNs: end, Standalone: true})
	return id
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its children cover, and returns the total of the root spans.
func (t *tracer) selfTimes() (byLayer map[string]time.Duration, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.EndNs < 0 {
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	byLayer = map[string]time.Duration{}
	for _, s := range t.spans {
		if s.EndNs < 0 {
			continue
		}
		dur := s.EndNs - s.StartNs
		if s.Parent == 0 {
			total += time.Duration(dur)
		}
		byLayer[s.Layer] += time.Duration(dur - covered(s, children[s.ID]))
	}
	return byLayer, total
}

// covered is the length of the union of the children's intervals clipped to s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var sum int64
	at := s.StartNs
	for _, k := range kids {
		lo, hi := k.StartNs, k.EndNs
		if lo < at {
			lo = at
		}
		if hi > s.EndNs {
			hi = s.EndNs
		}
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// flush writes the spans as one JSON document.
func (t *tracer) flush(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
