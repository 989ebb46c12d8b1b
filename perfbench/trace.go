package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call of a traced pass. Times are nanoseconds since
// the tracer started; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Point  string `json:"point,omitempty"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer
// records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, point string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Point: point})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// timed runs f inside a span and returns its host time.
func (t *tracer) timed(name string, parent int, point string, f func()) time.Duration {
	id := t.begin(name, parent, point)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
