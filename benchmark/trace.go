package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own wrappers, around the calls
// into each layer; nothing inside the program is instrumented. They
// stay in memory and are written out when the run ends.

// span is one timed interval. Spans of one operation (a Connect, a
// Backup of one file, ...) share Op; Parent is the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// maxSpans bounds the trace file; spans past it are counted, not kept.
const maxSpans = 400000

// tracer collects finished spans. A nil *tracer is the untraced run:
// begin returns nil and every method on a nil *openSpan is a no-op, so
// call sites need no branches.
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// begin opens a child of parent that belongs to parent's operation.
func (t *tracer) begin(parent *openSpan, name string) *openSpan {
	if t == nil {
		return nil
	}
	s := &openSpan{t: t, id: t.next.Add(1), name: name, start: time.Now()}
	if parent != nil {
		s.parent, s.op = parent.id, parent.op
	}
	return s
}

// beginOp opens a child of parent that starts an operation of its own.
func (t *tracer) beginOp(parent *openSpan, name string) *openSpan {
	s := t.begin(parent, name)
	if s != nil {
		s.op = s.id
	}
	return s
}

func (s *openSpan) end(bytes int64) {
	if s == nil {
		return
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
			Start: s.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds(),
			Bytes: bytes,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (four uploaders write at once), so the covered part is the union of
// the child intervals, clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerTime is the per-name aggregate the budget table prints.
type layerTime struct {
	Count  int64
	BusyNs int64 // sum of durations
	SelfNs int64 // sum of self times
	Bytes  int64
}

func aggregate(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.BusyNs += s.End - s.Start
		a.SelfNs += self[s.ID]
		a.Bytes += s.Bytes
		out[s.Name] = a
	}
	return out
}

// traceFile is what benchmark/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Meta     map[string]string `json:"meta"`
	Dropped  int64             `json:"dropped_spans"`
	Spans    []span            `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, meta map[string]string) error {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Meta: meta, Dropped: t.dropped, Spans: t.spans}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
