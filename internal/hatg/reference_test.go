package hatg

import (
	"reflect"
	"testing"

	"planarflow/internal/planar"
)

// appendGraph is Ĝ as it was built before the CSR: one growing arc slice
// per vertex and a [][]int of corner copies. Kept verbatim as the reference
// the CSR must reproduce, arc for arc and in order.
type appendGraph struct {
	prim *planar.Graph

	numV   int
	copyID [][]int
	owner  []int
	corner []int

	adj [][]Arc

	faceOfCopy []int
}

func newAppend(g *planar.Graph) *appendGraph {
	n := g.N()
	h := &appendGraph{
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

func (h *appendGraph) cornerBefore(v int, d planar.Dart) int {
	p := h.prim.RotationIndex(d) - 1
	if p < 0 {
		p = h.prim.Degree(v) - 1
	}
	return p
}

// referenceFamilies are grids, snakes, triangulations and sparse graphs
// with bridges and degree-1 vertices (a spanning tree's one face walks
// every edge twice; a single edge's face has length 2).
func referenceFamilies() map[string]*planar.Graph {
	rng := planar.NewRand(46)
	tri := planar.StackedTriangulation(60, rng)
	return map[string]*planar.Graph{
		"grid1x2":   planar.Grid(1, 2),
		"grid1x7":   planar.Grid(1, 7),
		"grid5x8":   planar.Grid(5, 8),
		"grid12x12": planar.Grid(12, 12),
		"snake12":   planar.BoustrophedonGrid(12, 12),
		"snake3x5":  planar.BoustrophedonGrid(3, 5),
		"cyl4x6":    planar.Cylinder(4, 6),
		"tri3":      planar.StackedTriangulation(3, rng),
		"tri100":    planar.StackedTriangulation(100, planar.NewRand(1)),
		"sparse":    planar.RemoveRandomEdges(tri, rng, 60),
		"tree":      planar.RemoveRandomEdges(tri, rng, tri.M()),
		"sparseGrd": planar.RemoveRandomEdges(planar.Grid(6, 6), rng, 15),
	}
}

// TestCSRMatchesAppendBuild: every Ĝ vertex lists the arcs the append-built
// Ĝ listed, in the same order, with the same endpoints through NeighborsOf,
// and every copy keeps its host, corner and face.
func TestCSRMatchesAppendBuild(t *testing.T) {
	for name, g := range referenceFamilies() {
		h, ref := New(g), newAppend(g)
		if h.N() != ref.numV {
			t.Fatalf("%s: %d vertices, reference %d", name, h.N(), ref.numV)
		}
		for x := 0; x < h.N(); x++ {
			got := h.Adj(x)
			if len(got) == 0 && len(ref.adj[x]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, ref.adj[x]) {
				t.Fatalf("%s: vertex %d arcs %v, reference %v", name, x, got, ref.adj[x])
			}
			nb := h.NeighborsOf(x)
			if len(nb) != len(got) {
				t.Fatalf("%s: vertex %d has %d neighbors, %d arcs", name, x, len(nb), len(got))
			}
			for i, a := range got {
				if nb[i] != a.To {
					t.Fatalf("%s: vertex %d neighbor %d is %d, arc says %d", name, x, i, nb[i], a.To)
				}
			}
			if h.FaceOfCopy(x) != ref.faceOfCopy[x] || h.Owner(x) != ref.owner[x] || h.Corner(x) != ref.corner[x] {
				t.Fatalf("%s: vertex %d face/owner/corner %d/%d/%d, reference %d/%d/%d", name, x,
					h.FaceOfCopy(x), h.Owner(x), h.Corner(x), ref.faceOfCopy[x], ref.owner[x], ref.corner[x])
			}
		}
		for v := 0; v < g.N(); v++ {
			for c, x := range ref.copyID[v] {
				if h.CopyID(v, c) != x {
					t.Fatalf("%s: copy (%d,%d) is %d, reference %d", name, v, c, h.CopyID(v, c), x)
				}
			}
		}
	}
}
