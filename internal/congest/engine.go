// Package congest simulates the synchronous CONGEST model of [Peleg '00] on
// an embedded planar communication graph.
//
// Each vertex is a computational unit executing the same step function.
// Communication proceeds in synchronous rounds; in every round each vertex
// may send one message of at most B = Θ(log n) bits along each incident
// dart. Messages are written into a flat double-buffered mailbox (one slot
// per dart) and delivered at the start of the next round; vertex steps
// within a round run concurrently on a persistent worker pool, mirroring
// the model's parallelism while keeping runs deterministic (inboxes are
// ordered by dart). A vertex that calls Halt sleeps until a message
// arrives for it; the run ends when every vertex sleeps in a round that
// sends nothing.
//
// The engine measures rounds, message counts and bandwidth violations; tests
// assert that algorithms never exceed the per-edge budget. It is the one
// engine: a computation on the face-disjoint graph Ĝ runs on it too, each
// vertex of G hosting its own Ĝ copies (hatg's tests). No query path runs
// on it: flowbench's SCHED experiment and the property tests that ground a
// ledger formula or a property of Ĝ do. The original channel-per-dart
// engine lives on in legacy_test.go as the differential-testing reference.
package congest

import (
	"fmt"
	"runtime"
	"slices"

	"planarflow/internal/planar"
)

// Received is a message as seen by its receiver: it arrived along dart In
// (whose head is the receiver), so the sender is Tail(In).
type Received struct {
	In      planar.Dart
	Payload any
	Bits    int
}

// Ctx is the per-vertex, per-round execution context handed to step
// functions.
type Ctx struct {
	V     int
	Round int
	In    []Received

	out    []outMsg
	halted bool
}

type outMsg struct {
	d       planar.Dart
	payload any
	bits    int
}

// Send transmits payload along dart d (which must leave Ctx.V) to be
// delivered next round. bits is the encoded size; it must not exceed the
// engine's per-message budget and at most one message may be sent per dart
// per round — violations are counted and fail tests.
func (c *Ctx) Send(d planar.Dart, payload any, bits int) {
	c.out = append(c.out, outMsg{d: d, payload: payload, bits: bits})
}

// Halt puts this vertex to sleep until a message arrives for it. The run
// ends when every vertex is asleep in a round that sends no messages.
func (c *Ctx) Halt() { c.halted = true }

// StepFunc is the code run by every vertex in every round.
type StepFunc func(c *Ctx)

// Stats aggregates a run's cost measurements.
type Stats struct {
	Rounds       int   // synchronous rounds executed
	Messages     int64 // total messages delivered
	Bits         int64 // total payload bits delivered
	Violations   int   // messages exceeding B bits or duplicate per-dart sends
	MaxInflight  int   // peak messages in a single round
	HaltedNormal bool  // true if run ended by unanimous halt (vs round cap)
}

// Runner is the engine surface the primitives in this package are written
// against; *Engine implements it, and so does the channel engine the tests
// keep as a reference.
type Runner interface {
	Run(step StepFunc, maxRounds int) Stats
	B() int
	Graph() *planar.Graph
}

// Engine executes CONGEST algorithms on a fixed communication graph.
type Engine struct {
	g *planar.Graph
	b int // per-message bit budget

	workers int
	topo    *topology
}

// MessageBits returns the CONGEST per-message budget for an n-vertex network:
// c * ceil(log2 n) bits with the customary constant c = 4 (an ID plus a
// polynomially-bounded weight fit in one message).
func MessageBits(n int) int {
	bits := 1
	for 1<<bits < n {
		bits++
	}
	return 4 * bits
}

// NewEngine returns an engine for g with the standard O(log n) message
// budget.
func NewEngine(g *planar.Graph) *Engine {
	return &Engine{g: g, b: MessageBits(g.N()), workers: runtime.GOMAXPROCS(0), topo: newDartTopology(g)}
}

// B returns the per-message bit budget.
func (e *Engine) B() int { return e.b }

// Graph returns the communication graph.
func (e *Engine) Graph() *planar.Graph { return e.g }

// newDartTopology flattens g for the scheduler: out-slot s is dart s, it
// delivers to Head(s), and inboxes are ordered by arriving dart id (the
// order the channel engine produced by sorting).
func newDartTopology(g *planar.Graph) *topology {
	n := g.N()
	nd := g.NumDarts()
	t := &topology{n: n, dest: make([]int32, nd), in: make([][]int32, n)}
	for d := 0; d < nd; d++ {
		t.dest[d] = int32(g.Head(planar.Dart(d)))
	}
	for v := 0; v < n; v++ {
		rot := g.Rotation(v)
		in := make([]int32, 0, len(rot))
		for _, d := range rot {
			in = append(in, int32(planar.Rev(d)))
		}
		slices.Sort(in)
		t.in[v] = in
	}
	t.finishOffsets()
	return t
}

// Run executes step on every vertex each round until every vertex sleeps in
// a round with no message sends, or maxRounds is reached.
func (e *Engine) Run(step StepFunc, maxRounds int) Stats {
	ctxs := make([]*Ctx, e.g.N())
	for v := range ctxs {
		ctxs[v] = &Ctx{V: v}
	}
	return runSched(e.topo, e.b, e.workers, maxRounds,
		func(v, round int, in []Received, out outbox) bool {
			c := ctxs[v]
			c.Round = round
			c.In = in
			c.halted = false
			c.out = c.out[:0]
			step(c)
			for _, m := range c.out {
				if e.g.Tail(m.d) != v {
					panic(fmt.Sprintf("congest: vertex %d sent on dart %d it does not own", v, m.d))
				}
				out.post(int32(m.d), m.payload, m.bits)
			}
			return c.halted
		})
}
