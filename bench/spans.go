package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the tracer started; parent is the id of the
// span that caused it (-1 for a root). Rep numbers the traced repetition:
// there is one per workload, so it is 0. Count carries the work done
// under the span where a layer reports one (experiments in a wave,
// records in a batch).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
	Count  int    `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It serves a single
// goroutine: the traced pipelines are assembled serially on purpose, so
// the open-span stack is the causal chain.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a child of the innermost open span and returns the
// span's id.
func (t *tracer) do(name string, fn func()) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	fn()
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return id
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// count returns how many spans carry the name, and the sum of their
// work counts.
func (t *tracer) count(name string) (spans, work int) {
	for _, s := range t.spans {
		if s.Name == name {
			spans++
			work += s.Count
		}
	}
	return
}

// longest returns the longest single span with the name.
func (t *tracer) longest(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.dur() > d {
			d = s.dur()
		}
	}
	return d
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover (overlapping children are counted once).
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, edge int64 = 0, p.Start
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return time.Duration(p.End - p.Start - covered)
}

// selfOf sums the self time of every span with the given name.
func (t *tracer) selfOf(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += selfTime(t.spans, s.ID)
		}
	}
	return d
}

// write stores the spans as one JSON array, creating the directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
