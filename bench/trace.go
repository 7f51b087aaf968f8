package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the layer. Spans of one operation share Req; Parent is the
// span that was open when this one began (0 = none).
type span struct {
	Req    int    `json:"req"`
	Span   int    `json:"span"` // 1-based position in the trace
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It serves one
// goroutine: every traced pass has a single caller, which is also what
// makes its counts repeat exactly. A nil tracer records nothing, so the
// untraced passes run the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span ids
	req    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// next starts a new operation: spans begun from here on carry its id.
func (t *tracer) next() {
	if t != nil {
		t.req++
	}
}

func (t *tracer) begin(layer string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.open = append(t.open, id)
	t.spans = append(t.spans, span{Req: t.req, Span: id, Parent: parent, Layer: layer, Start: int64(time.Since(t.origin))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// durations returns every span duration of one layer, in trace order.
func (t *tracer) durations(layer string) []int64 {
	var out []int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Layer == layer {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the trace as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
