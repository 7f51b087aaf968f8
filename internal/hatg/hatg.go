// Package hatg builds the face-disjoint graph Ĝ of [Ghaffari–Parter '17] as
// extended by the paper (§3): the communication scaffold through which
// computations on the dual graph G* are simulated on the primal network G.
//
// Every vertex v of G appears in Ĝ as a star center plus deg(v) corner
// copies, one per local region (the wedge between two consecutive edges in
// v's rotation). The edge set is E_S ∪ E_R ∪ E_C:
//
//   - E_S (star) edges join v to each of its corner copies;
//   - E_R (ring) edges duplicate each edge of G once per incident face, so
//     that the faces of G map to vertex- and edge-disjoint cycles of Ĝ[E_R];
//   - E_C (chord) edges — the paper's extension of [17] — realize the dual
//     edge e* of every primal edge e as a concrete Ĝ edge between two corner
//     copies of e's higher-ID endpoint, giving the 1-1 mapping between E_C
//     and E(G*) (Property 5).
//
// Properties 1–3 of §3 (planarity up to the star edges, diameter ≤ 3D, 2x
// CONGEST simulation overhead) justify running aggregation algorithms on Ĝ
// and charging 2x their rounds on G.
package hatg

import (
	"fmt"

	"planarflow/internal/planar"
)

// EdgeKind tags the three edge classes of Ĝ.
type EdgeKind int

const (
	Star  EdgeKind = iota + 1 // E_S: star center to corner copy
	Ring                      // E_R: face-boundary duplicate of a primal edge
	Chord                     // E_C: realization of a dual edge
)

// Arc is a directed view of an undirected Ĝ edge.
type Arc struct {
	To   int
	Kind EdgeKind
	// Dart is the primal dart this arc derives from: for Ring arcs, the dart
	// whose face-boundary step it duplicates; for Chord arcs, the forward
	// dart of the primal edge whose dual edge it realizes. NoDart for Star.
	Dart planar.Dart
}

// Graph is the face-disjoint graph.
type Graph struct {
	prim *planar.Graph

	numV int
	// copyID[v][c] is the Ĝ vertex for corner c of primal vertex v; corner c
	// is the wedge between rotation edges c and c+1 (cyclic). Star centers
	// are the first n vertex IDs (star center of v is v itself).
	copyID [][]int
	// owner and corner invert copyID for non-star vertices.
	owner  []int
	corner []int

	adj [][]Arc

	// faceOfCopy[x] is the face of G whose Ĝ-cycle contains copy x (-1 for
	// star centers).
	faceOfCopy []int
}

// New builds Ĝ for the embedded planar graph g. Construction is local
// (Property 1: O(1) CONGEST rounds); callers charge those rounds separately.
func New(g *planar.Graph) *Graph {
	n := g.N()
	h := &Graph{
		prim:   g,
		copyID: make([][]int, n),
	}
	id := n
	h.owner = make([]int, n, n+2*g.M())
	h.corner = make([]int, n, n+2*g.M())
	for v := 0; v < n; v++ {
		h.owner[v] = v
		h.corner[v] = -1
		deg := g.Degree(v)
		h.copyID[v] = make([]int, deg)
		for c := 0; c < deg; c++ {
			h.copyID[v][c] = id
			h.owner = append(h.owner, v)
			h.corner = append(h.corner, c)
			id++
		}
	}
	h.numV = id
	h.adj = make([][]Arc, id)
	h.faceOfCopy = make([]int, id)
	for i := range h.faceOfCopy {
		h.faceOfCopy[i] = -1
	}

	fd := g.Faces()
	addUndirected := func(a, b int, kind EdgeKind, d planar.Dart) {
		h.adj[a] = append(h.adj[a], Arc{To: b, Kind: kind, Dart: d})
		h.adj[b] = append(h.adj[b], Arc{To: a, Kind: kind, Dart: d})
	}

	// E_S: star edges.
	for v := 0; v < n; v++ {
		for _, x := range h.copyID[v] {
			addUndirected(v, x, Star, planar.NoDart)
		}
	}

	// E_R: one duplicate of each edge per incident face. The dart d (u->v)
	// leaves u at corner pos(d)-1 and arrives at v at corner pos(rev(d)),
	// both corners of the face containing d.
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		u, v := g.Tail(d), g.Head(d)
		cu := h.cornerBefore(u, d)
		cv := g.RotationIndex(planar.Rev(d))
		a, b := h.copyID[u][cu], h.copyID[v][cv]
		addUndirected(a, b, Ring, d)
		f := fd.FaceOf(d)
		h.faceOfCopy[a] = f
		h.faceOfCopy[b] = f
	}

	// E_C: for each primal edge e, connect across e the two corner copies of
	// its higher-ID endpoint; this edge realizes the dual edge e*.
	for e := 0; e < g.M(); e++ {
		fw := planar.ForwardDart(e)
		d := fw // dart leaving the higher-ID endpoint
		if g.Tail(fw) < g.Head(fw) {
			d = planar.Rev(fw)
		}
		v := g.Tail(d)
		c1 := h.cornerBefore(v, d)
		c2 := g.RotationIndex(d)
		addUndirected(h.copyID[v][c1], h.copyID[v][c2], Chord, fw)
	}
	return h
}

// cornerBefore returns the corner index at v immediately preceding dart d in
// the rotation (the wedge a face boundary passes through when leaving via d).
func (h *Graph) cornerBefore(v int, d planar.Dart) int {
	p := h.prim.RotationIndex(d) - 1
	if p < 0 {
		p = h.prim.Degree(v) - 1
	}
	return p
}

// N returns the number of Ĝ vertices (n + 2m).
func (h *Graph) N() int { return h.numV }

// Primal returns the underlying planar graph.
func (h *Graph) Primal() *planar.Graph { return h.prim }

// Adj returns the arcs of Ĝ vertex x. The slice must not be modified.
func (h *Graph) Adj(x int) []Arc { return h.adj[x] }

// IsStarCenter reports whether x is a star center (an original vertex of G).
func (h *Graph) IsStarCenter(x int) bool { return x < h.prim.N() }

// FaceOfCopy returns the face of G whose boundary cycle in Ĝ[E_R] contains
// copy x (-1 for star centers).
func (h *Graph) FaceOfCopy(x int) int { return h.faceOfCopy[x] }

// CheckFaceCycles verifies Property 1/4 structure: the Ring subgraph
// decomposes into cycles, one per face of G, with copies of a face's corners
// appearing on exactly that face's cycle. Its only production caller is
// planarcheck's summary view; Property 3, Ĝ simulated on G at 2×, is
// checked by running a BFS over Ĝ on G's congest.Engine in this package's
// tests.
func (h *Graph) CheckFaceCycles() error {
	fd := h.prim.Faces()
	// Count Ring-degree: every copy must have exactly two ring arcs.
	for x := h.prim.N(); x < h.numV; x++ {
		cnt := 0
		for _, a := range h.adj[x] {
			if a.Kind == Ring {
				cnt++
			}
		}
		if cnt != 2 {
			return fmt.Errorf("hatg: copy %d has %d ring arcs, want 2", x, cnt)
		}
		if h.faceOfCopy[x] < 0 {
			return fmt.Errorf("hatg: copy %d not assigned to a face", x)
		}
	}
	// Component count of Ĝ[E_R] over copies must equal the face count, and
	// components must not mix faces.
	comp := make([]int, h.numV)
	for i := range comp {
		comp[i] = -1
	}
	numComp := 0
	for x := h.prim.N(); x < h.numV; x++ {
		if comp[x] != -1 {
			continue
		}
		face := h.faceOfCopy[x]
		stack := []int{x}
		comp[x] = numComp
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if h.faceOfCopy[y] != face {
				return fmt.Errorf("hatg: ring component mixes faces %d and %d", face, h.faceOfCopy[y])
			}
			for _, a := range h.adj[y] {
				if a.Kind == Ring && comp[a.To] == -1 {
					comp[a.To] = numComp
					stack = append(stack, a.To)
				}
			}
		}
		numComp++
	}
	if numComp != fd.NumFaces() {
		return fmt.Errorf("hatg: %d ring components, want %d faces", numComp, fd.NumFaces())
	}
	return nil
}
