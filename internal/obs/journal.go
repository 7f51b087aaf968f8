package obs

// The ops event journal: a bounded ring of typed fleet events (ejects,
// re-admits, epoch bumps, adopts, peer restores, drains) so membership
// churn is inspectable after the fact and cross-linked to the trace
// that caused it. The fleet client records into it as routing decisions
// fire; cmd/flowdfleet serves it on /fleetz next to the ring epoch the
// events explain.

import (
	"sync"
	"time"
)

// EventType names one kind of fleet membership or recovery event.
type EventType string

const (
	// EventEject: a member was marked dead after an unavailable call.
	EventEject EventType = "eject"
	// EventReadmit: a probe saw the member healthy and re-admitted it.
	EventReadmit EventType = "readmit"
	// EventEpochBump: ring epoch advanced (every eject/readmit bumps it).
	EventEpochBump EventType = "epoch_bump"
	// EventAdopt: a member registered a graph it did not own before,
	// because routing moved the graph to it.
	EventAdopt EventType = "adopt"
	// EventPeerRestore: an adopted or standby graph was restored from a
	// peer's snapshot bytes instead of a cold rebuild.
	EventPeerRestore EventType = "peer_restore"
	// EventDrain: a member was drained (graceful shutdown).
	EventDrain EventType = "drain"
)

// Event is one journal entry. TraceID links the event to the request
// trace whose routing caused it, where one exists.
type Event struct {
	Seq     int64     `json:"seq"`
	UnixMS  int64     `json:"unix_ms"`
	Type    EventType `json:"type"`
	Member  string    `json:"member,omitempty"`
	Graph   string    `json:"graph,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// DefaultJournalRing is the journal size when unconfigured.
const DefaultJournalRing = 256

// Journal is a bounded, concurrency-safe ring of Events.
type Journal struct {
	mu   sync.Mutex
	ring []Event
	at   int
	seq  int64
}

// NewJournal sizes the ring; zero or negative takes the default.
func NewJournal(size int) *Journal {
	if size <= 0 {
		size = DefaultJournalRing
	}
	return &Journal{ring: make([]Event, 0, size)}
}

// Record stamps sequence and time onto e and appends it, overwriting
// the oldest entry once the ring is full.
func (j *Journal) Record(e Event) {
	now := time.Now().UnixMilli()
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if e.UnixMS == 0 {
		e.UnixMS = now
	}
	j.at, _ = push(&j.ring, j.at, cap(j.ring), e)
	j.mu.Unlock()
}

// Recent returns the retained events, newest first.
func (j *Journal) Recent() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return drain(j.ring, j.at)
}
