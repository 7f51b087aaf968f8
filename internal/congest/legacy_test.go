package congest

// The original channel-based engine, retained verbatim in behavior as a
// differential-testing and benchmarking reference for the flat-mailbox
// scheduler (sched.go). ChanEngine allocates one buffered channel per dart
// and spawns a fresh worker pool every round. Equivalence tests
// (equiv_test.go) assert that the scheduler produces identical Stats and
// results on the same workloads, and the scheduler benchmarks
// (sched_bench_test.go) measure the speedup against it.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"planarflow/internal/planar"
)

// ChanEngine is the reference channel-per-dart CONGEST engine.
type ChanEngine struct {
	g *planar.Graph
	b int

	workers int
}

// NewChanEngine returns the reference engine for g with the standard
// O(log n) message budget.
func NewChanEngine(g *planar.Graph) *ChanEngine {
	return &ChanEngine{g: g, b: MessageBits(g.N()), workers: runtime.GOMAXPROCS(0)}
}

// B returns the per-message bit budget.
func (e *ChanEngine) B() int { return e.b }

// Graph returns the communication graph.
func (e *ChanEngine) Graph() *planar.Graph { return e.g }

// Run executes step on every vertex each round until every vertex halts in a
// round with no message deliveries, or maxRounds is reached.
func (e *ChanEngine) Run(step StepFunc, maxRounds int) Stats {
	n := e.g.N()
	var stats Stats

	// mailbox[d] carries the message sent along dart d, delivered one round
	// after it is sent.
	mailbox := make([]chan Received, e.g.NumDarts())
	for d := range mailbox {
		mailbox[d] = make(chan Received, 1)
	}

	ctxs := make([]*Ctx, n)
	for v := range ctxs {
		ctxs[v] = &Ctx{V: v}
	}

	inflight := 0
	for round := 0; round < maxRounds; round++ {
		// Deliver: drain each vertex's incoming darts into its inbox.
		delivered := 0
		for v := 0; v < n; v++ {
			c := ctxs[v]
			c.In = c.In[:0]
			for _, d := range e.g.Rotation(v) {
				in := planar.Rev(d) // dart pointing at v
				select {
				case m := <-mailbox[in]:
					c.In = append(c.In, m)
					delivered++
				default:
				}
			}
			sort.Slice(c.In, func(i, j int) bool { return c.In[i].In < c.In[j].In })
		}
		if round > 0 && delivered == 0 && chanAllHalted(ctxs) {
			stats.HaltedNormal = true
			return stats
		}
		stats.Messages += int64(delivered)
		if delivered > stats.MaxInflight {
			stats.MaxInflight = delivered
		}

		// Compute: run all vertex steps for this round concurrently.
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < e.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := range work {
					c := ctxs[v]
					c.Round = round
					c.halted = false
					c.out = c.out[:0]
					step(c)
				}
			}()
		}
		for v := 0; v < n; v++ {
			work <- v
		}
		close(work)
		wg.Wait()
		stats.Rounds++

		// Route: push outboxes into the per-dart channels.
		inflight = 0
		for v := 0; v < n; v++ {
			for _, m := range ctxs[v].out {
				if e.g.Tail(m.d) != v {
					panic(fmt.Sprintf("congest: vertex %d sent on dart %d it does not own", v, m.d))
				}
				if m.bits > e.b {
					stats.Violations++
				}
				select {
				case mailbox[m.d] <- Received{In: m.d, Payload: m.payload, Bits: m.bits}:
					stats.Bits += int64(m.bits)
					inflight++
				default:
					stats.Violations++ // two messages on one dart in one round
				}
			}
		}
		if inflight == 0 && chanAllHalted(ctxs) {
			stats.HaltedNormal = true
			return stats
		}
	}
	return stats
}

func chanAllHalted(ctxs []*Ctx) bool {
	for _, c := range ctxs {
		if !c.halted {
			return false
		}
	}
	return true
}
