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
//
// Ĝ is one CSR — per-vertex offsets into a neighbor slab — and is its own
// communication network: *Graph has the N/NeighborsOf pair pa.Network asks
// for, so pa's shortcut skeleton and token schedule read the slab without a
// copy. The typed arcs (Adj) are derived only when first asked for.
package hatg

import (
	"fmt"
	"slices"
	"sync"

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

// Graph is the face-disjoint graph, laid out as one CSR: vertex x's
// neighbors are nbrs[start[x]:start[x+1]].
type Graph struct {
	prim *planar.Graph

	numV int
	// base[v] is the Ĝ vertex of corner 0 of primal vertex v: its corner c,
	// the wedge between rotation edges c and c+1 (cyclic), is base[v]+c. Star
	// centers are the first n vertex IDs (star center of v is v itself).
	base []int
	// owner[x] is the primal vertex that hosts Ĝ vertex x (Property 3).
	owner []int

	start []int
	nbrs  []int
	// arcs holds, slot for slot with nbrs, the arcs Adj returns. Only
	// CheckFaceCycles reads them, so the first Adj derives them (arcSlab).
	arcsOnce sync.Once
	arcs     []Arc

	// faceOfCopy[x] is the face of G whose Ĝ-cycle contains copy x (-1 for
	// star centers).
	faceOfCopy []int
}

// New builds Ĝ for the embedded planar graph g. Construction is local
// (Property 1: O(1) CONGEST rounds); callers charge those rounds separately.
//
// A counting pass sizes every vertex's arc list and a fill pass writes it,
// both walking the edges in one order — star (by vertex and corner), ring
// (by dart), chord (by primal edge) — so each vertex lists its arcs in that
// order, the order a BFS over Ĝ (pa.BuildTree, and with it the measured PA
// unit) visits them in.
func New(g *planar.Graph) *Graph {
	n := g.N()
	numV := n + g.NumDarts()
	h := &Graph{
		prim:       g,
		numV:       numV,
		base:       make([]int, n),
		owner:      make([]int, numV),
		start:      make([]int, numV+1),
		faceOfCopy: make([]int, numV),
	}
	id := n
	for v := 0; v < n; v++ {
		h.owner[v] = v
		h.faceOfCopy[v] = -1
		h.base[v] = id
		for end := id + g.Degree(v); id < end; id++ {
			h.owner[id] = v
		}
	}

	// Counting pass: start[x+1] counts x's arcs, then the prefix sums make
	// start[x] the first slot of x.
	h.eachEdge(func(a, b int, _ EdgeKind, _ planar.Dart) {
		h.start[a+1]++
		h.start[b+1]++
	})
	for x := 0; x < numV; x++ {
		h.start[x+1] += h.start[x]
	}
	// Fill pass: start[x] is x's cursor, so afterwards start[x] holds what
	// start[x+1] held, and one shift restores the offsets.
	h.nbrs = make([]int, h.start[numV])
	fd := g.Faces()
	h.eachEdge(func(a, b int, kind EdgeKind, d planar.Dart) {
		h.nbrs[h.start[a]] = b
		h.start[a]++
		h.nbrs[h.start[b]] = a
		h.start[b]++
		if kind == Ring {
			f := fd.FaceOf(d)
			h.faceOfCopy[a] = f
			h.faceOfCopy[b] = f
		}
	})
	copy(h.start[1:], h.start[:numV])
	h.start[0] = 0
	return h
}

// eachEdge calls emit once per undirected Ĝ edge, star edges first, then
// ring, then chord.
func (h *Graph) eachEdge(emit func(a, b int, kind EdgeKind, d planar.Dart)) {
	g := h.prim
	// E_S: star edges.
	for v := 0; v < g.N(); v++ {
		for c := 0; c < g.Degree(v); c++ {
			emit(v, h.base[v]+c, Star, planar.NoDart)
		}
	}

	// E_R: one duplicate of each edge per incident face. The dart d (u->v)
	// leaves u at corner pos(d)-1 and arrives at v at corner pos(rev(d)),
	// both corners of the face containing d.
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		u, v := g.Tail(d), g.Head(d)
		emit(h.base[u]+h.cornerBefore(u, d), h.base[v]+g.RotationIndex(planar.Rev(d)), Ring, d)
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
		emit(h.base[v]+h.cornerBefore(v, d), h.base[v]+g.RotationIndex(d), Chord, fw)
	}
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

// Adj returns the arcs of Ĝ vertex x, in NeighborsOf's order. The slice
// must not be modified.
func (h *Graph) Adj(x int) []Arc {
	arcs := h.arcSlab()
	return arcs[h.start[x]:h.start[x+1]:h.start[x+1]]
}

// arcSlab returns every vertex's arcs in one slab laid out like nbrs,
// filling it on first use by the walk New's fill pass took.
func (h *Graph) arcSlab() []Arc {
	h.arcsOnce.Do(func() {
		h.arcs = make([]Arc, len(h.nbrs))
		next := slices.Clone(h.start[:h.numV])
		h.eachEdge(func(a, b int, kind EdgeKind, d planar.Dart) {
			h.arcs[next[a]] = Arc{To: b, Kind: kind, Dart: d}
			next[a]++
			h.arcs[next[b]] = Arc{To: a, Kind: kind, Dart: d}
			next[b]++
		})
	})
	return h.arcs
}

// NeighborsOf returns the endpoints of x's arcs, in Adj's order. The slice
// must not be modified.
func (h *Graph) NeighborsOf(x int) []int { return h.nbrs[h.start[x]:h.start[x+1]:h.start[x+1]] }

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
		for _, a := range h.Adj(x) {
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
			for _, a := range h.Adj(y) {
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
