package congest

// The original channel-based engines, retained verbatim in behavior as a
// differential-testing and benchmarking reference for the flat-mailbox
// scheduler (sched.go). ChanEngine allocates one buffered channel per dart
// and spawns a fresh worker pool every round; ChanPortEngine mirrors it for
// port-numbered graphs. Equivalence tests (equiv_test.go) assert that the
// scheduler produces identical Stats and results on the same workloads, and
// the scheduler benchmarks (sched_bench_test.go) measure the speedup against
// these.

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

// ChanPortEngine is the reference per-round-allocating port engine.
type ChanPortEngine struct {
	adj [][]int
	b   int

	workers int
}

// NewChanPortEngine wraps an adjacency list (adj[v][i] = i-th neighbor of v).
func NewChanPortEngine(adj [][]int) *ChanPortEngine {
	return &ChanPortEngine{adj: adj, b: MessageBits(len(adj)), workers: 4}
}

// B returns the per-message bit budget.
func (e *ChanPortEngine) B() int { return e.b }

// N returns the vertex count.
func (e *ChanPortEngine) N() int { return len(e.adj) }

// Run executes the algorithm until unanimous halt with no deliveries, or
// maxRounds.
func (e *ChanPortEngine) Run(step PortStepFunc, maxRounds int) Stats {
	n := len(e.adj)
	var stats Stats
	reversePort := pairPorts(e.adj)

	inbox := make([][]PortMsg, n)
	next := make([][]PortMsg, n)
	ctxs := make([]*PortCtx, n)
	for v := range ctxs {
		ctxs[v] = &PortCtx{V: v, deg: len(e.adj[v])}
	}
	for round := 0; round < maxRounds; round++ {
		delivered := 0
		for v := 0; v < n; v++ {
			inbox[v], next[v] = next[v], inbox[v][:0]
			delivered += len(inbox[v])
			sort.Slice(inbox[v], func(i, j int) bool { return inbox[v][i].Port < inbox[v][j].Port })
		}
		if round > 0 && delivered == 0 && chanPortAllHalted(ctxs) {
			stats.HaltedNormal = true
			return stats
		}
		stats.Messages += int64(delivered)
		if delivered > stats.MaxInflight {
			stats.MaxInflight = delivered
		}

		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < e.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := range work {
					c := ctxs[v]
					c.Round = round
					c.In = inbox[v]
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

		sent := 0
		perPort := map[[2]int]bool{}
		for v := 0; v < n; v++ {
			for _, m := range ctxs[v].out {
				if m.bits > e.b {
					stats.Violations++
				}
				key := [2]int{v, m.port}
				if perPort[key] {
					stats.Violations++
					continue
				}
				perPort[key] = true
				u := e.adj[v][m.port]
				next[u] = append(next[u], PortMsg{Port: reversePort[v][m.port], Payload: m.payload, Bits: m.bits})
				stats.Bits += int64(m.bits)
				sent++
			}
		}
		if sent == 0 && chanPortAllHalted(ctxs) {
			stats.HaltedNormal = true
			return stats
		}
	}
	return stats
}

func chanPortAllHalted(ctxs []*PortCtx) bool {
	for _, c := range ctxs {
		if !c.halted {
			return false
		}
	}
	return true
}
