package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestJournalRingWrap(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(Event{Type: EventEject, Member: fmt.Sprintf("r%d", i)})
	}
	got := j.Recent()
	if len(got) != 4 {
		t.Fatalf("journal kept %d events, want 4", len(got))
	}
	// Newest-first: the last four records, sequence descending.
	for i, wantSeq := range []int64{10, 9, 8, 7} {
		if got[i].Seq != wantSeq {
			t.Fatalf("recent[%d].Seq = %d, want %d (order: %+v)", i, got[i].Seq, wantSeq, got)
		}
		if got[i].UnixMS == 0 {
			t.Fatalf("recent[%d] missing timestamp", i)
		}
	}
	if got[0].Member != "r9" || got[3].Member != "r6" {
		t.Fatalf("wrong events retained: %+v", got)
	}
	// The newest Seq counts every event ever recorded; the ones it counts
	// beyond the ring's length are the ones a wrap overwrote.
	if total := got[0].Seq; total != 10 || total-int64(len(got)) != 6 {
		t.Fatalf("newest Seq = %d (dropped %d), want 10 (dropped 6)", total, total-int64(len(got)))
	}
}

func TestJournalPartialAndFields(t *testing.T) {
	j := NewJournal(8)
	j.Record(Event{Type: EventAdopt, Member: "r1", Graph: "g", TraceID: "abc", Detail: "source=peer"})
	j.Record(Event{Type: EventPeerRestore, Member: "r1", Graph: "g", TraceID: "abc", Detail: "peer=http://x"})
	got := j.Recent()
	if len(got) != 2 || got[0].Type != EventPeerRestore || got[1].Type != EventAdopt {
		t.Fatalf("order/partial drain wrong: %+v", got)
	}
	if got[0].TraceID != "abc" || got[0].Graph != "g" || got[0].Detail != "peer=http://x" {
		t.Fatalf("fields lost: %+v", got[0])
	}
	if dropped := got[0].Seq - int64(len(got)); dropped != 0 {
		t.Fatalf("%d events dropped before any wrap", dropped)
	}
}

// TestTracerDropped pins the ring-wrap overwrite counter the registry
// exports as trace_spans_dropped_total.
func TestTracerDropped(t *testing.T) {
	tr := NewTracer(2, time.Hour)
	for i := 0; i < 5; i++ {
		tr.Finish(NewSpan(uint64(i), "http"), 0, "")
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	// Slow spans land in both rings, so each wrap counts twice.
	slow := NewTracer(2, time.Millisecond)
	for i := 0; i < 3; i++ {
		slow.Finish(NewSpan(uint64(i), "http"), time.Second, "")
	}
	if got := slow.Dropped(); got != 2 {
		t.Fatalf("slow Dropped = %d, want 2 (one wrap in each ring)", got)
	}
}
