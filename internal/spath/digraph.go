// Package spath provides centralized shortest-path, flow and cut algorithms.
//
// They are the independent baselines every distributed result is validated
// against: Dinic for flows, Stoer–Wagner for cuts, Bellman–Ford on the
// explicit dual for SSSP. Bellman–Ford and APSPBellmanFord are baseline-only
// since the labeling pass took its local computation — what a vertex that
// collected a leaf bag or a DDG computes for free (§5.3) — to internal/label's
// flat-array kernel, which is tested row for row against them; the per-bag
// cycle enumerations of global min cut and directed girth run on that kernel
// too. Dijkstra's one loop is Search.Run over an Adjacency: Dijkstra runs
// it on a Digraph for the baselines and for global min cut's reconstruction
// of the bisection, whose parent darts pick the cut, so the tie order is
// part of the answer; Hassin's augmented dual runs it on the face table
// itself, building no Digraph, so its ties break as a Digraph's would.
// GlobalMinCut is girth's min cut on the simple dual: Stoer–Wagner after a
// contraction test.
package spath

import "math"

// Inf is the distance sentinel for "unreachable". It is large enough that
// Inf + any polynomial weight never overflows int64.
const Inf int64 = math.MaxInt64 / 4

// Arc is a directed, weighted arc with an opaque caller-assigned identifier
// (planar callers store the primal Dart here).
type Arc struct {
	To  int
	Len int64
	ID  int
}

// Digraph is a mutable directed multigraph used by the centralized
// algorithms.
type Digraph struct {
	adj [][]Arc
}

// NewDigraph returns an empty digraph on n vertices.
func NewDigraph(n int) *Digraph {
	return &Digraph{adj: make([][]Arc, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return len(g.adj) }

// AddArc appends a directed arc.
func (g *Digraph) AddArc(from, to int, length int64, id int) {
	g.adj[from] = append(g.adj[from], Arc{To: to, Len: length, ID: id})
}

// Out returns the out-arcs of v. The returned slice must not be modified.
func (g *Digraph) Out(v int) []Arc { return g.adj[v] }
