// Package spath provides centralized shortest-path, flow and cut algorithms.
//
// They are the independent baselines every distributed result is validated
// against: Dinic for flows, Stoer–Wagner for cuts, Bellman–Ford on the
// explicit dual for SSSP. Bellman–Ford and APSPBellmanFord are baseline-only
// since the labeling pass took its local computation — what a vertex that
// collected a leaf bag or a DDG computes for free (§5.3) — to internal/label's
// flat-array kernel, which is tested row for row against them; the per-bag
// cycle enumerations of global min cut and directed girth run on that kernel
// too. Dijkstra and Digraph serve only Hassin's augmented dual and global min
// cut's reconstruction of the bisection, whose parent darts pick the cut, so
// their tie order is part of the answer. GlobalMinCut is girth's min cut on
// the simple dual: Stoer–Wagner after a contraction test.
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

// NewDigraphSized returns an empty digraph on len(deg) vertices whose
// adjacency lists are carved out of one array, vertex v with room for deg[v]
// arcs: a caller that knows its degrees adds every arc without a list ever
// growing.
func NewDigraphSized(deg []int) *Digraph {
	total := 0
	for _, d := range deg {
		total += d
	}
	arcs := make([]Arc, total)
	g := &Digraph{adj: make([][]Arc, len(deg))}
	off := 0
	for v, d := range deg {
		g.adj[v] = arcs[off : off : off+d]
		off += d
	}
	return g
}

// N returns the number of vertices.
func (g *Digraph) N() int { return len(g.adj) }

// AddArc appends a directed arc.
func (g *Digraph) AddArc(from, to int, length int64, id int) {
	g.adj[from] = append(g.adj[from], Arc{To: to, Len: length, ID: id})
}

// Out returns the out-arcs of v. The returned slice must not be modified.
func (g *Digraph) Out(v int) []Arc { return g.adj[v] }
