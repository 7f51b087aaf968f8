package congest

// This file is the simulation core Engine compiles to.
//
// A network is flattened into out-slots: every dart gets one slot in a flat
// mailbox slice, indexed by its id. Sending writes the slot; delivery one
// round later reads it. Two mailbox generations are kept (double
// buffering): the round's steps read generation "cur" and write generation
// "nxt", and the two slices are swapped at the round boundary — no channels,
// no per-round allocation.
//
// Inboxes live in a single arena with one fixed segment per vertex, filled
// each round by scanning the vertex's in-darts in ascending id order, so
// inbox construction neither allocates nor sorts and is deterministic by
// construction.
//
// Steps run on a worker pool that is spawned at most once per Run and
// reused across rounds (rounds with small active sets are run inline on the
// calling goroutine, which is cheaper than waking the pool). Only the
// active set steps: a vertex that called Halt sleeps until a message
// arrives for it, so quiescent regions of the network cost nothing. Halt is
// therefore a *sleep* — "I have nothing to do until I hear something" — and
// the run ends when every vertex sleeps in a round that sent no messages,
// exactly the termination condition the channel engine used.

import (
	"sync"
	"sync/atomic"

	"planarflow/internal/planar"
)

// topology is the immutable flattened communication structure shared by all
// Runs of an engine: who each out-slot delivers to, and each vertex's
// in-slots in deterministic inbox order. Slot s is dart s, so an in-slot is
// also the dart a receiver sees the message arrive on.
type topology struct {
	n     int
	dest  []int32   // dest[s] = vertex that slot s delivers to
	in    [][]int32 // in[v] = v's in-slots, ascending
	inOff []int32   // arena segment of v is [inOff[v], inOff[v+1])
}

func (t *topology) finishOffsets() {
	t.inOff = make([]int32, t.n+1)
	for v := 0; v < t.n; v++ {
		t.inOff[v+1] = t.inOff[v] + int32(len(t.in[v]))
	}
}

// mailSlot is one flat mailbox cell: the message in flight on one link, if
// any. Duplicate sends on a full slot are dropped and counted as violations,
// matching the capacity-1 channels of the original engine.
type mailSlot struct {
	payload any
	bits    int32
	full    bool
}

// schedCounters accumulates one worker's per-round measurements and
// worklist contributions; merged by the coordinator at the round barrier.
// The hot counters are padded away from the slice headers so workers don't
// false-share.
type schedCounters struct {
	delivered  int64
	sent       int64
	bits       int64
	violations int64
	_          [4]int64 // pad the counters to a cache line

	// stayed collects vertices this worker stepped that did not halt;
	// woke collects destinations whose wake flag this worker won (CAS).
	// Together they form the next round's active set without an O(n) scan.
	stayed []int32
	woke   []int32
}

// schedRun is the per-Run mutable state of the scheduler.
type schedRun struct {
	topo *topology
	b    int

	cur, nxt []mailSlot
	arena    []Received
	wake     []atomic.Bool

	active []int32
	round  int

	idx      atomic.Int64
	counters []schedCounters

	step func(v, round int, in []Received, out outbox) bool
}

// outbox is the send surface handed to Engine's step callback; it routes
// messages into the next mailbox generation and accounts them on the
// calling worker's counters.
type outbox struct {
	r  *schedRun
	ws *schedCounters
}

// post sends a message on out-slot s, enforcing the bit budget and the
// one-message-per-link-per-round rule exactly as the channel engine did:
// oversized messages are delivered but counted as violations; a second send
// on the same slot in one round is dropped and counted.
func (o outbox) post(slot int32, payload any, bits int) {
	r := o.r
	if bits > r.b {
		o.ws.violations++
	}
	s := &r.nxt[slot]
	if s.full {
		o.ws.violations++
		return
	}
	s.payload = payload
	s.bits = int32(bits)
	s.full = true
	o.ws.bits += int64(bits)
	o.ws.sent++
	d := r.topo.dest[slot]
	if r.wake[d].CompareAndSwap(false, true) {
		o.ws.woke = append(o.ws.woke, d)
	}
}

// processVertex delivers v's pending messages into its arena segment, runs
// its step, and records its halt vote. Safe to run concurrently for
// distinct vertices: in-slot sets and arena segments are disjoint, and each
// out-slot has a unique owner.
func (r *schedRun) processVertex(v int32, ws *schedCounters) {
	off := r.topo.inOff[v]
	seg := r.arena[off:off:r.topo.inOff[v+1]]
	for _, slot := range r.topo.in[v] {
		s := &r.cur[slot]
		if s.full {
			seg = append(seg, Received{In: planar.Dart(slot), Payload: s.payload, Bits: int(s.bits)})
			s.full = false
			s.payload = nil
		}
	}
	ws.delivered += int64(len(seg))
	if halted := r.step(int(v), r.round, seg, outbox{r: r, ws: ws}); !halted {
		ws.stayed = append(ws.stayed, v)
	}
}

// claim runs the worker share of one round: vertices are claimed from the
// active list via an atomic cursor.
func (r *schedRun) claim(ws *schedCounters) {
	n := int64(len(r.active))
	for {
		i := r.idx.Add(1) - 1
		if i >= n {
			return
		}
		r.processVertex(r.active[i], ws)
	}
}

// serialThreshold is the active-set size below which a round is stepped
// inline instead of on the pool; tiny rounds (BFS wavefronts, tree phases)
// are dominated by handoff cost otherwise.
const serialThreshold = 64

// runSched executes the synchronous round loop over a topology. step runs
// one vertex for one round and reports whether it went to sleep. Semantics
// (Stats fields, violation rules, termination) match the channel engine.
func runSched(
	topo *topology,
	b, workers, maxRounds int,
	step func(v, round int, in []Received, out outbox) bool,
) Stats {
	n := topo.n
	nslots := len(topo.dest)
	if workers < 1 {
		workers = 1
	}

	r := &schedRun{
		topo:     topo,
		b:        b,
		cur:      make([]mailSlot, nslots),
		nxt:      make([]mailSlot, nslots),
		arena:    make([]Received, nslots),
		wake:     make([]atomic.Bool, n),
		active:   make([]int32, n),
		counters: make([]schedCounters, workers+1),
		step:     step,
	}
	for v := range r.active {
		r.active[v] = int32(v) // round 0: every vertex steps
	}
	nextActive := make([]int32, 0, n)

	// Lazily-started persistent pool: one goroutine per worker, reused
	// every parallel round, shut down when the run returns.
	var (
		start   chan struct{}
		wg      sync.WaitGroup
		started bool
	)
	defer func() {
		if started {
			close(start)
		}
	}()
	ensurePool := func() {
		if started {
			return
		}
		started = true
		start = make(chan struct{})
		for w := 0; w < workers; w++ {
			ws := &r.counters[w]
			go func() {
				for range start {
					r.claim(ws)
					wg.Done()
				}
			}()
		}
	}

	var stats Stats
	for r.round = 0; r.round < maxRounds; r.round++ {
		for i := range r.counters {
			c := &r.counters[i]
			c.delivered, c.sent, c.bits, c.violations = 0, 0, 0, 0
			c.stayed = c.stayed[:0]
			c.woke = c.woke[:0]
		}
		if len(r.active) < serialThreshold || workers == 1 {
			ws := &r.counters[workers]
			for _, v := range r.active {
				r.processVertex(v, ws)
			}
		} else {
			ensurePool()
			r.idx.Store(0)
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				start <- struct{}{}
			}
			wg.Wait()
		}
		stats.Rounds++

		var delivered, sent int64
		for i := range r.counters {
			c := &r.counters[i]
			delivered += c.delivered
			sent += c.sent
			stats.Bits += c.bits
			stats.Violations += int(c.violations)
		}
		stats.Messages += delivered
		if int(delivered) > stats.MaxInflight {
			stats.MaxInflight = int(delivered)
		}

		// Round barrier: the next active set is the union of the workers'
		// stayed lists (stepped, did not halt) and woke lists (received a
		// send, flag won by CAS) — no O(n) scan. A vertex in both lists is
		// deduplicated by checking its still-set wake flag during the
		// stayed pass, then the woke pass appends it and clears the flag.
		nextActive = nextActive[:0]
		allHalted := true
		for i := range r.counters {
			for _, v := range r.counters[i].stayed {
				allHalted = false
				if !r.wake[v].Load() {
					nextActive = append(nextActive, v)
				}
			}
		}
		for i := range r.counters {
			for _, v := range r.counters[i].woke {
				nextActive = append(nextActive, v)
				r.wake[v].Store(false)
			}
		}
		if sent == 0 && allHalted {
			stats.HaltedNormal = true
			return stats
		}
		r.active, nextActive = nextActive, r.active
		r.cur, r.nxt = r.nxt, r.cur
	}
	return stats
}
