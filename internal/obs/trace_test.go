package obs

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestTraceRingEviction fills a small ring past capacity and checks
// newest-first ordering with the oldest spans evicted.
func TestTraceRingEviction(t *testing.T) {
	tr := NewTracer(4, time.Hour)
	for i := 1; i <= 10; i++ {
		s := NewSpan(uint64(i), "http")
		s.Family = fmt.Sprintf("q%d", i)
		tr.Finish(s, time.Duration(i)*time.Millisecond, "")
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(got))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if got[i].ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d (order: %+v)", i, got[i].ID, want, got)
		}
	}
	if len(tr.Slow()) != 0 {
		t.Fatal("nothing crossed the slow threshold")
	}
}

// TestTraceRingPartial checks newest-first order before the ring wraps.
func TestTraceRingPartial(t *testing.T) {
	tr := NewTracer(8, time.Hour)
	for i := 1; i <= 3; i++ {
		tr.Finish(NewSpan(uint64(i), "wire"), time.Millisecond, "")
	}
	got := tr.Recent()
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 1 {
		t.Fatalf("partial ring order wrong: %+v", got)
	}
}

// TestSlowLog checks threshold classification and the slow ring.
func TestSlowLog(t *testing.T) {
	tr := NewTracer(16, 10*time.Millisecond)
	if tr.Finish(NewSpan(1, "http"), 2*time.Millisecond, "") {
		t.Fatal("fast span flagged slow")
	}
	s := NewSpan(2, "http")
	s.Family = "maxflow"
	s.Add(PhaseBuild, 40*time.Millisecond)
	if !tr.Finish(s, 50*time.Millisecond, "") {
		t.Fatal("slow span not flagged")
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].ID != 2 {
		t.Fatalf("slow log = %+v", slow)
	}
	if slow[0].PhasesMS["build"] != 40 {
		t.Fatalf("slow span lost phase attribution: %+v", slow[0].PhasesMS)
	}
	if tr.SlowCount() != 1 {
		t.Fatalf("SlowCount = %d", tr.SlowCount())
	}
}

// TestSpanContext checks context plumbing and nil-span tolerance.
func TestSpanContext(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a span")
	}
	var nilSpan *Span
	nilSpan.Add(PhaseExec, time.Second) // must not panic
	nilSpan.MarkSince(PhaseExec, time.Now())
	if nilSpan.PhaseNS(PhaseExec) != 0 {
		t.Fatal("nil span reported phase time")
	}

	s := NewSpan(7, "wire")
	ctx := ContextWithSpan(context.Background(), s)
	got := SpanFromContext(ctx)
	if got != s {
		t.Fatal("span did not round-trip through context")
	}
	got.Add(PhaseDecode, 3*time.Millisecond)
	got.Add(PhaseDecode, 2*time.Millisecond)
	if s.PhaseNS(PhaseDecode) != int64(5*time.Millisecond) {
		t.Fatalf("phase accumulation = %d", s.PhaseNS(PhaseDecode))
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		n := p.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("phase %d name %q invalid or duplicate", p, n)
		}
		seen[n] = true
	}
	if Phase(-1).String() != "unknown" || NumPhases.String() != "unknown" {
		t.Fatal("out-of-range phases must stringify as unknown")
	}
}

// eagerView is how the tracer rendered a span when every Finish built
// its SpanView on the spot; TestTracezRendersAtRead holds the records the
// rings keep now, rendered on read, to it field for field.
func eagerView(s *Span, total time.Duration, errMsg string) SpanView {
	v := SpanView{
		ID: s.ID, Transport: s.Transport, Family: s.Family,
		Graph: s.Graph, Err: errMsg,
		TraceID:     s.TraceID(),
		Hop:         int(s.Hop),
		StartUnixMS: s.Start.UnixMilli(),
		TotalMS:     float64(total.Microseconds()) / 1000,
	}
	if s.SpanID != 0 {
		v.SpanID = fmt.Sprintf("%016x", s.SpanID)
	}
	if s.Parent != 0 {
		v.ParentID = fmt.Sprintf("%016x", s.Parent)
	}
	s.noteMu.Lock()
	if len(s.notes) > 0 {
		v.Notes = append([]string(nil), s.notes...)
	}
	s.noteMu.Unlock()
	for p := Phase(0); p < NumPhases; p++ {
		if ns := s.phases[p].Load(); ns > 0 {
			if v.PhasesMS == nil {
				v.PhasesMS = make(map[string]float64, int(NumPhases))
			}
			v.PhasesMS[p.String()] = float64(ns) / 1e6
		}
	}
	return v
}

// TestTracezRendersAtRead: the rings keep raw records and render them
// when read, and what they render is what the eager view rendered at
// Finish — for spans with and without trace identity, notes, an error
// and phases, across wraps of both rings. A note added after Finish
// stays out.
func TestTracezRendersAtRead(t *testing.T) {
	const ring = 3
	threshold := 10 * time.Millisecond
	tr := NewTracer(ring, threshold)
	var recent, slow []SpanView // expected, newest first
	var finished []*Span
	for i := 0; i < 11; i++ {
		s := NewSpan(uint64(100+i), []string{"http", "wire", "fleet"}[i%3])
		s.Family, s.Graph = fmt.Sprintf("f%d", i%4), fmt.Sprintf("g%d", i)
		if i%2 == 0 {
			s.SetTrace(TraceContext{Hi: uint64(i) << 40, Lo: 0xabc + uint64(i), Parent: uint64(7 * i), Hop: uint8(i % 4)})
		}
		if i == 4 {
			s.SpanID = 0 // a zero id renders as no span id
		}
		if i%3 == 1 {
			s.Annotate("member", fmt.Sprintf("r%d", i))
			s.Annotate("attempt", "2")
		}
		for p := Phase(0); p < NumPhases; p++ {
			if (i+int(p))%3 != 0 {
				s.Add(p, time.Duration(i+1)*time.Duration(p+1)*1234*time.Microsecond/7)
			}
		}
		errMsg := ""
		if i%4 == 3 {
			errMsg = fmt.Sprintf("boom %d", i)
		}
		total := time.Duration(i) * 1537 * time.Microsecond
		want := eagerView(s, total, errMsg)
		if slowGot := tr.Finish(s, total, errMsg); slowGot != (total >= threshold) {
			t.Fatalf("span %d: Finish slow = %v, total %v", i, slowGot, total)
		}
		recent = append([]SpanView{want}, recent...)
		if total >= threshold {
			slow = append([]SpanView{want}, slow...)
		}
		finished = append(finished, s)
	}
	for _, s := range finished {
		s.Annotate("late", "1")
	}
	if len(slow) <= ring {
		t.Fatalf("the slow ring must wrap too: %d slow spans for a ring of %d", len(slow), ring)
	}
	for _, c := range []struct {
		name      string
		got, want []SpanView
	}{{"recent", tr.Recent(), recent[:ring]}, {"slow", tr.Slow(), slow[:ring]}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s ring renders\n%+v\nwant\n%+v", c.name, c.got, c.want)
		}
		for _, v := range c.got {
			for _, n := range v.Notes {
				if n == "late=1" {
					t.Fatalf("%s: span %d shows a note added after Finish: %v", c.name, v.ID, v.Notes)
				}
			}
		}
	}
	if want := int64(len(recent) - ring + len(slow) - ring); tr.Dropped() != want {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), want)
	}
}
