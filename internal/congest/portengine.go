package congest

import (
	"fmt"
	"sort"
)

// PortEngine is a synchronous CONGEST engine over an arbitrary port-numbered
// graph (adjacency lists). It exists so algorithms can be executed on the
// face-disjoint graph Ĝ itself — the communication scaffold of §3 — whose
// vertices are copies of primal vertices rather than an embedded planar
// graph. Semantics match Engine: per round, one B-bit message per incident
// port per direction, delivered next round. Like Engine it is a thin
// adapter over the shared flat-mailbox scheduler (sched.go).
type PortEngine struct {
	adj [][]int
	b   int

	workers int
	topo    *topology
	off     []int32 // out-slot of (v, p) is off[v]+p
}

// NewPortEngine wraps an adjacency list (adj[v][i] = i-th neighbor of v).
func NewPortEngine(adj [][]int) *PortEngine {
	e := &PortEngine{adj: adj, b: MessageBits(len(adj)), workers: 4}
	e.topo, e.off = newPortTopology(adj)
	return e
}

// B returns the per-message bit budget.
func (e *PortEngine) B() int { return e.b }

// N returns the vertex count.
func (e *PortEngine) N() int { return len(e.adj) }

// PortMsg is a received message: it arrived on the receiver's port Port
// (so the sender is adj[receiver][Port]).
type PortMsg struct {
	Port    int
	Payload any
	Bits    int
}

// PortCtx is the per-vertex per-round context.
type PortCtx struct {
	V     int
	Round int
	In    []PortMsg

	deg    int
	out    []portOut
	halted bool
}

type portOut struct {
	port    int
	payload any
	bits    int
}

// Send transmits along port p of the current vertex.
func (c *PortCtx) Send(p int, payload any, bits int) {
	c.out = append(c.out, portOut{port: p, payload: payload, bits: bits})
}

// Halt puts this vertex to sleep until a message arrives for it.
func (c *PortCtx) Halt() { c.halted = true }

// Degree returns the current vertex's port count.
func (c *PortCtx) Degree() int { return c.deg }

// PortStepFunc is the per-vertex round handler.
type PortStepFunc func(c *PortCtx)

// PortRunner is the port-engine surface the port primitives are written
// against; *PortEngine implements it, and so does the channel engine the
// tests keep as a reference.
type PortRunner interface {
	Run(step PortStepFunc, maxRounds int) Stats
	B() int
	N() int
}

// pairPorts computes reversePort[v][i] = the port index at neighbor
// u = adj[v][i] that points back to v, pairing parallel edges by occurrence
// order (-1 when the adjacency is not symmetric).
func pairPorts(adj [][]int) [][]int {
	n := len(adj)
	reversePort := make([][]int, n)
	used := make([]map[int]int, n)
	for v := range used {
		used[v] = map[int]int{}
		reversePort[v] = make([]int, len(adj[v]))
		for i := range reversePort[v] {
			reversePort[v][i] = -1
		}
	}
	for v := 0; v < n; v++ {
		for i, u := range adj[v] {
			if reversePort[v][i] != -1 {
				continue
			}
			// Find the next unused port at u pointing to v.
			start := used[u][v]
			for j := start; j < len(adj[u]); j++ {
				if adj[u][j] == v && reversePort[u][j] == -1 {
					reversePort[v][i] = j
					reversePort[u][j] = i
					used[u][v] = j + 1
					break
				}
			}
		}
	}
	return reversePort
}

// newPortTopology flattens a port-numbered graph for the scheduler:
// out-slot off[v]+p delivers to adj[v][p], keyed by the receiver's paired
// port so inboxes come out sorted by Port.
func newPortTopology(adj [][]int) (*topology, []int32) {
	n := len(adj)
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(adj[v]))
	}
	t := &topology{n: n, dest: make([]int32, off[n]), in: make([][]inRef, n)}
	reversePort := pairPorts(adj)
	for v := 0; v < n; v++ {
		for i, u := range adj[v] {
			s := off[v] + int32(i)
			t.dest[s] = int32(u)
			t.in[u] = append(t.in[u], inRef{slot: s, key: int32(reversePort[v][i])})
		}
	}
	for v := 0; v < n; v++ {
		refs := t.in[v]
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].key != refs[j].key {
				return refs[i].key < refs[j].key
			}
			return refs[i].slot < refs[j].slot
		})
	}
	t.finishOffsets()
	return t, off
}

// Run executes the algorithm until every vertex sleeps in a round with no
// message sends, or maxRounds.
func (e *PortEngine) Run(step PortStepFunc, maxRounds int) Stats {
	ctxs := make([]*PortCtx, len(e.adj))
	for v := range ctxs {
		ctxs[v] = &PortCtx{V: v, deg: len(e.adj[v])}
	}
	return runSched(e.topo, e.b, e.workers, maxRounds,
		func(key int32, payload any, bits int32) PortMsg {
			return PortMsg{Port: int(key), Payload: payload, Bits: int(bits)}
		},
		func(v, round int, in []PortMsg, out outbox[PortMsg]) bool {
			c := ctxs[v]
			c.Round = round
			c.In = in
			c.halted = false
			c.out = c.out[:0]
			step(c)
			for _, m := range c.out {
				if m.port < 0 || m.port >= c.deg {
					panic(fmt.Sprintf("congest: vertex %d sent on port %d of %d", v, m.port, c.deg))
				}
				out.post(e.off[v]+int32(m.port), m.payload, m.bits)
			}
			return c.halted
		})
}

// PortBFS floods a BFS from root and returns hop distances; measured rounds
// ≈ eccentricity(root).
func PortBFS(e PortRunner, root int) ([]int, Stats) {
	dist := make([]int, e.N())
	for v := range dist {
		dist[v] = -1
	}
	dist[root] = 0
	type tok struct{ d int }
	stats := e.Run(func(c *PortCtx) {
		v := c.V
		if c.Round == 0 && v == root {
			for p := 0; p < c.Degree(); p++ {
				c.Send(p, tok{d: 1}, e.B())
			}
		}
		for _, m := range c.In {
			t, ok := m.Payload.(tok)
			if !ok {
				continue
			}
			if dist[v] == -1 {
				dist[v] = t.d
				for p := 0; p < c.Degree(); p++ {
					if p != m.Port {
						c.Send(p, tok{d: t.d + 1}, e.B())
					}
				}
			}
		}
		c.Halt()
	}, 4*e.N()+8)
	return dist, stats
}
