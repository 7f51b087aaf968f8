package obs

// Lightweight per-request tracing: a Span accumulates per-phase wall
// time as the request crosses the serving layers (decode → store acquire
// → substrate build → execution → encode → write), keyed by the request
// id that already flows through the HTTP and wire planes. Spans are
// carried down the stack via context — store, artifact and decode mark
// their phases without any API signature changes — and finished spans
// land in a bounded ring (plus a separate slow-query ring above a
// configurable threshold) that /tracez serves as JSON.
//
// Phase counters are atomic: a batch request's worker goroutines share
// one span, so concurrent marks must not race.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one segment of a request's life.
type Phase int

const (
	// PhaseDecode: parsing and validating the request payload.
	PhaseDecode Phase = iota
	// PhaseAcquire: store registry lookup, LRU touch, pin (including any
	// disk-tier restore a miss triggers).
	PhaseAcquire
	// PhaseBuild: substrate construction charged to this request (the
	// singleflight builder's wall; waiters charge nothing here).
	PhaseBuild
	// PhaseExec: query execution against the pinned bundle (a decode
	// engine hit or core's route) inclusive of PhaseBuild time, which is
	// reported separately to split build-heavy from decode-heavy requests.
	PhaseExec
	// PhaseEncode: response encoding (on the HTTP plane this includes the
	// network write: encoder and ResponseWriter are fused; the wire
	// plane's writer-queue dwell has its own histogram, since frames
	// outlive their span).
	PhaseEncode
	NumPhases
)

var phaseNames = [NumPhases]string{"decode", "acquire", "build", "exec", "encode"}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Span is one request's phase accounting. Identity fields are written
// once by the owning handler before the span enters shared contexts;
// phase marks are atomic, and annotations take a mutex (they are rare:
// fleet control-plane events, not per-query marks).
type Span struct {
	ID        uint64
	SpanID    uint64 // process-unique id for parent/child stitching
	Transport string // "http" | "wire" | "fleet"
	Family    string // query op, or "batch"
	Graph     string
	Start     time.Time

	// Trace identity: the 128-bit trace this span belongs to, the span
	// id of its parent, and the hop it executes at. Written once by the
	// owner via SetTrace before the span is shared.
	TraceHi, TraceLo uint64
	Parent           uint64
	Hop              uint8

	phases [NumPhases]atomic.Int64 // ns

	noteMu sync.Mutex
	notes  []string
}

// NewSpan starts a span for one request.
func NewSpan(id uint64, transport string) *Span {
	return &Span{ID: id, SpanID: NewSpanID(), Transport: transport, Start: time.Now()}
}

// SetTrace stamps the span with an inbound trace identity: the span
// executes at the context's hop, under the context's parent.
func (s *Span) SetTrace(tc TraceContext) {
	s.TraceHi, s.TraceLo = tc.Hi, tc.Lo
	s.Parent = tc.Parent
	s.Hop = tc.Hop
}

// TraceID renders the span's trace id, or "" when untraced.
func (s *Span) TraceID() string {
	if s == nil || s.TraceHi|s.TraceLo == 0 {
		return ""
	}
	return TraceContext{Hi: s.TraceHi, Lo: s.TraceLo}.TraceID()
}

// ChildCtx derives the context for a child span in the same process:
// same trace, same hop, parented under this span.
func (s *Span) ChildCtx() TraceContext {
	return TraceContext{Hi: s.TraceHi, Lo: s.TraceLo, Parent: s.SpanID, Hop: s.Hop}
}

// Propagate derives the context for the next outbound hop: same trace,
// parented under this span, hop incremented for the control transfer.
func (s *Span) Propagate() TraceContext {
	return TraceContext{Hi: s.TraceHi, Lo: s.TraceLo, Parent: s.SpanID, Hop: s.Hop + 1}
}

// Annotate attaches a key=value note to the span (route decisions,
// member names, attempt counts). Nil-tolerant like the phase marks.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.noteMu.Lock()
	s.notes = append(s.notes, key+"="+value)
	s.noteMu.Unlock()
}

// Add charges d to phase p.
func (s *Span) Add(p Phase, d time.Duration) {
	if s == nil || p < 0 || p >= NumPhases {
		return
	}
	s.phases[p].Add(d.Nanoseconds())
}

// MarkSince charges the wall since t0 to phase p and returns that
// duration (so callers can feed the same measurement to a histogram).
func (s *Span) MarkSince(p Phase, t0 time.Time) time.Duration {
	d := time.Since(t0)
	s.Add(p, d)
	return d
}

// PhaseNS returns the accumulated nanoseconds of phase p.
func (s *Span) PhaseNS(p Phase) int64 {
	if s == nil || p < 0 || p >= NumPhases {
		return 0
	}
	return s.phases[p].Load()
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span to ctx for the layers below.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span attached to ctx, or nil. All Span
// methods tolerate a nil receiver, so callers may mark unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanView is the JSON shape of a finished span served on /tracez.
type SpanView struct {
	ID          uint64             `json:"id"`
	Transport   string             `json:"transport"`
	Family      string             `json:"family"`
	Graph       string             `json:"graph,omitempty"`
	Err         string             `json:"err,omitempty"`
	TraceID     string             `json:"trace_id,omitempty"`
	SpanID      string             `json:"span_id,omitempty"`
	ParentID    string             `json:"parent_id,omitempty"`
	Hop         int                `json:"hop"`
	Notes       []string           `json:"notes,omitempty"`
	StartUnixMS int64              `json:"start_unix_ms"`
	TotalMS     float64            `json:"total_ms"`
	PhasesMS    map[string]float64 `json:"phases_ms,omitempty"`
}

// spanRecord is what the tracer rings keep of a finished span: its
// fields as they were at Finish, raw. Rendering ids as hex and phases
// as a map is left to view, which runs when /tracez is read, so a
// request pays for one fixed-size copy rather than for the JSON shape.
type spanRecord struct {
	id, spanID, traceHi, traceLo, parent uint64
	hop                                  uint8
	transport, family, graph, err        string
	notes                                []string
	startUnixMS                          int64
	total                                time.Duration
	phases                               [NumPhases]int64
}

// record freezes a finished span. Notes are copied, so an annotation
// made after Finish does not reach the ring.
func record(s *Span, total time.Duration, errMsg string) spanRecord {
	r := spanRecord{
		id: s.ID, spanID: s.SpanID, traceHi: s.TraceHi, traceLo: s.TraceLo,
		parent: s.Parent, hop: s.Hop,
		transport: s.Transport, family: s.Family, graph: s.Graph, err: errMsg,
		startUnixMS: s.Start.UnixMilli(),
		total:       total,
	}
	s.noteMu.Lock()
	if len(s.notes) > 0 {
		r.notes = append([]string(nil), s.notes...)
	}
	s.noteMu.Unlock()
	for p := range r.phases {
		r.phases[p] = s.phases[p].Load()
	}
	return r
}

// view renders a retained span. Only nonzero phases are materialized.
func (r *spanRecord) view() SpanView {
	v := SpanView{
		ID: r.id, Transport: r.transport, Family: r.family,
		Graph: r.graph, Err: r.err,
		Hop:         int(r.hop),
		Notes:       r.notes,
		StartUnixMS: r.startUnixMS,
		TotalMS:     float64(r.total.Microseconds()) / 1000,
	}
	if r.traceHi|r.traceLo != 0 {
		v.TraceID = TraceContext{Hi: r.traceHi, Lo: r.traceLo}.TraceID()
	}
	if r.spanID != 0 {
		v.SpanID = fmt.Sprintf("%016x", r.spanID)
	}
	if r.parent != 0 {
		v.ParentID = fmt.Sprintf("%016x", r.parent)
	}
	for p := Phase(0); p < NumPhases; p++ {
		if ns := r.phases[p]; ns > 0 {
			if v.PhasesMS == nil {
				v.PhasesMS = make(map[string]float64, int(NumPhases))
			}
			v.PhasesMS[p.String()] = float64(ns) / 1e6
		}
	}
	return v
}

// SpanFilter selects spans on /tracez and /fleettracez: zero fields
// match everything.
type SpanFilter struct {
	Family string  // exact family match when nonempty
	Graph  string  // exact graph match when nonempty
	MinMS  float64 // keep spans at least this slow
}

// Empty reports whether the filter matches every span.
func (f SpanFilter) Empty() bool { return f.Family == "" && f.Graph == "" && f.MinMS <= 0 }

// Match reports whether v passes the filter.
func (f SpanFilter) Match(v SpanView) bool {
	if f.Family != "" && v.Family != f.Family {
		return false
	}
	if f.Graph != "" && v.Graph != f.Graph {
		return false
	}
	return v.TotalMS >= f.MinMS
}

// FilterSpans returns the spans passing f, preserving order. The empty
// filter returns the input unchanged (no copy).
func FilterSpans(in []SpanView, f SpanFilter) []SpanView {
	if f.Empty() {
		return in
	}
	out := make([]SpanView, 0, len(in))
	for _, v := range in {
		if f.Match(v) {
			out = append(out, v)
		}
	}
	return out
}

// Tracer keeps the most recent finished spans in a bounded ring and the
// most recent slow ones (total >= threshold) in a second ring. The rings
// hold raw records; Recent and Slow render them.
type Tracer struct {
	mu        sync.Mutex
	recent    []spanRecord
	recentAt  int
	slow      []spanRecord
	slowAt    int
	threshold time.Duration
	slowTotal int64
	dropped   int64 // spans overwritten on ring wrap, both rings
}

// DefaultTraceRing is the recent-span ring size when unconfigured.
const DefaultTraceRing = 128

// DefaultSlowThreshold flags requests slower than this for the
// slow-query log when unconfigured.
const DefaultSlowThreshold = 250 * time.Millisecond

// NewTracer sizes the rings; zero or negative values take the defaults
// (slow ring defaults to the recent ring's size).
func NewTracer(ring int, threshold time.Duration) *Tracer {
	if ring <= 0 {
		ring = DefaultTraceRing
	}
	if threshold <= 0 {
		threshold = DefaultSlowThreshold
	}
	return &Tracer{
		recent:    make([]spanRecord, 0, ring),
		slow:      make([]spanRecord, 0, ring),
		threshold: threshold,
	}
}

// Threshold returns the slow-query threshold.
func (t *Tracer) Threshold() time.Duration { return t.threshold }

// SlowCount returns how many finished spans crossed the threshold.
func (t *Tracer) SlowCount() int64 { return atomic.LoadInt64(&t.slowTotal) }

// Dropped returns how many finished spans a ring wrap has overwritten —
// the registry exposes it as trace_spans_dropped_total so a too-small
// ring stops being a silent loss.
func (t *Tracer) Dropped() int64 { return atomic.LoadInt64(&t.dropped) }

// Finish records a completed span and reports whether it was slow. The
// span must not be marked after Finish.
func (t *Tracer) Finish(s *Span, total time.Duration, errMsg string) bool {
	v := record(s, total, errMsg)
	slow := total >= t.threshold
	overwrote := 0
	t.mu.Lock()
	var wrapped bool
	if t.recentAt, wrapped = push(&t.recent, t.recentAt, cap(t.recent), v); wrapped {
		overwrote++
	}
	if slow {
		if t.slowAt, wrapped = push(&t.slow, t.slowAt, cap(t.slow), v); wrapped {
			overwrote++
		}
	}
	t.mu.Unlock()
	if slow {
		atomic.AddInt64(&t.slowTotal, 1)
	}
	if overwrote > 0 {
		atomic.AddInt64(&t.dropped, int64(overwrote))
	}
	return slow
}

// push appends v into the ring backing slice, overwriting the oldest
// entry once full, and returns the next write position plus whether an
// entry was overwritten.
func push[T any](ring *[]T, at, size int, v T) (int, bool) {
	if len(*ring) < size {
		*ring = append(*ring, v)
		return 0, false // position unused until the ring wraps
	}
	if at >= size {
		at = 0
	}
	(*ring)[at] = v
	return at + 1, true
}

// Recent returns the retained spans, newest first.
func (t *Tracer) Recent() []SpanView {
	t.mu.Lock()
	recs := drain(t.recent, t.recentAt)
	t.mu.Unlock()
	return views(recs)
}

// Slow returns the retained slow spans, newest first.
func (t *Tracer) Slow() []SpanView {
	t.mu.Lock()
	recs := drain(t.slow, t.slowAt)
	t.mu.Unlock()
	return views(recs)
}

// views renders drained records outside the tracer lock, so a /tracez
// read never holds up a Finish for longer than the copy.
func views(recs []spanRecord) []SpanView {
	out := make([]SpanView, len(recs))
	for i := range recs {
		out[i] = recs[i].view()
	}
	return out
}

// drain copies a ring out newest-first. While the ring is still filling,
// the newest entry is the last appended; after wrapping, it is the one
// just before the write cursor.
func drain[T any](ring []T, at int) []T {
	out := make([]T, 0, len(ring))
	if len(ring) < cap(ring) {
		for i := len(ring) - 1; i >= 0; i-- {
			out = append(out, ring[i])
		}
		return out
	}
	for i := 0; i < len(ring); i++ {
		idx := at - 1 - i
		for idx < 0 {
			idx += len(ring)
		}
		out = append(out, ring[idx])
	}
	return out
}
