// Package ledger accounts CONGEST rounds for composite algorithms.
//
// Some rounds are read off a schedule the repository simulates (the BFS
// skeleton on Ĝ); phases whose message pattern is fixed by already measured
// quantities (e.g. a pipelined broadcast of k B-bit messages over a depth-d
// tree) are charged d + k rounds from those quantities. Every entry records
// which of the two it is, so experiments can report the split.
package ledger

import "sync"

// Kind distinguishes measured engine rounds from charged (derived) rounds.
type Kind int

const (
	// Measured rounds were read off a simulated schedule.
	Measured Kind = iota + 1
	// Charged rounds were computed from measured run quantities (bit counts,
	// tree depths, congestion) using the standard pipelining bounds.
	Charged
)

func (k Kind) String() string {
	switch k {
	case Measured:
		return "measured"
	case Charged:
		return "charged"
	default:
		return "unknown"
	}
}

// Scope distinguishes one-time preprocessing cost (building the BDD and the
// distance labelings — the reusable artifact of §5) from the per-query cost
// paid on every invocation. The zero value is Query, so phases recorded by
// code that predates the artifact layer count as query cost.
type Scope int

const (
	// Query rounds are paid by every query.
	Query Scope = iota
	// Build rounds are paid once per (graph, length-function) artifact and
	// amortize across queries.
	Build
)

func (s Scope) String() string {
	if s == Build {
		return "build"
	}
	return "query"
}

// Entry is one accounted phase.
type Entry struct {
	Phase  string
	Rounds int64
	Kind   Kind
	Scope  Scope
}

// Ledger accumulates entries; safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	entries []Entry
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{} }

// Measure records engine-measured rounds for a phase.
func (l *Ledger) Measure(phase string, rounds int) { l.add(phase, int64(rounds), Measured) }

// Charge records derived rounds for a phase.
func (l *Ledger) Charge(phase string, rounds int64) { l.add(phase, rounds, Charged) }

func (l *Ledger) add(phase string, rounds int64, k Kind) {
	l.addScoped(phase, rounds, k, Query)
}

func (l *Ledger) addScoped(phase string, rounds int64, k Kind, sc Scope) {
	if rounds < 0 {
		rounds = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, Entry{Phase: phase, Rounds: rounds, Kind: k, Scope: sc})
}

// Total returns the sum of all rounds.
func (l *Ledger) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s int64
	for _, e := range l.entries {
		s += e.Rounds
	}
	return s
}

// Split returns (measured, charged) round totals.
func (l *Ledger) Split() (measured, charged int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		if e.Kind == Measured {
			measured += e.Rounds
		} else {
			charged += e.Rounds
		}
	}
	return measured, charged
}

// Entries returns a copy of all entries.
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// ByPhase returns per-phase totals, aggregating repeated phases.
func (l *Ledger) ByPhase() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64)
	for _, e := range l.entries {
		out[e.Phase] += e.Rounds
	}
	return out
}

// BuildSplit returns (build, query) round totals.
func (l *Ledger) BuildSplit() (build, query int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		if e.Scope == Build {
			build += e.Rounds
		} else {
			query += e.Rounds
		}
	}
	return build, query
}

// Merge folds all entries of other into l, preserving kinds and scopes.
func (l *Ledger) Merge(other *Ledger) {
	src := other.snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, src...)
}

// MergeAs folds all entries of other into l, rewriting their scope — the
// artifact layer uses it to mark substrate-construction phases as Build cost
// when a query triggers (or replays) a build.
func (l *Ledger) MergeAs(other *Ledger, sc Scope) {
	src := other.snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.entries)
	l.entries = append(l.entries, src...)
	for i := n; i < len(l.entries); i++ {
		l.entries[i].Scope = sc
	}
}

// MergeScoped folds only other's entries of the given scope into l,
// preserving kinds and scopes. The decode engine uses it to keep a replayable
// record of a query's per-query phases without the one-time Build phases the
// first invocation happened to trigger.
func (l *Ledger) MergeScoped(other *Ledger, sc Scope) {
	src := other.snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range src {
		if e.Scope == sc {
			l.entries = append(l.entries, e)
		}
	}
}

// snapshot returns l's entries as they stand, uncopied: entries are only
// appended, so the prefix it covers never changes. A merge takes it before
// locking l, one lock at a time, so a self-merge cannot deadlock.
func (l *Ledger) snapshot() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries[:len(l.entries):len(l.entries)]
}

// PipelinedBroadcastRounds returns the standard cost of broadcasting k
// messages over a depth-d tree with pipelining: d + k.
func PipelinedBroadcastRounds(depth, messages int64) int64 { return depth + messages }
