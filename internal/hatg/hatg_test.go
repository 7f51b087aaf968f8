package hatg

import (
	"testing"

	"planarflow/internal/planar"
)

func families(t *testing.T) map[string]*planar.Graph {
	t.Helper()
	rng := planar.NewRand(5)
	return map[string]*planar.Graph{
		"grid3x3":  planar.Grid(3, 3),
		"grid2x7":  planar.Grid(2, 7),
		"grid6x6":  planar.Grid(6, 6),
		"cyl3x5":   planar.Cylinder(3, 5),
		"stack40":  planar.StackedTriangulation(40, rng),
		"sparse":   planar.RemoveRandomEdges(planar.StackedTriangulation(40, rng), rng, 20),
		"path":     planar.Grid(1, 6),
		"triangle": planar.StackedTriangulation(3, rng),
	}
}

func TestSizes(t *testing.T) {
	for name, g := range families(t) {
		h := New(g)
		if h.N() != g.N()+2*g.M() {
			t.Fatalf("%s: |V(hatG)|=%d want %d", name, h.N(), g.N()+2*g.M())
		}
		// Edge counts: n star-edge groups summing to 2m, 2m ring edges (one
		// per dart), m chords; adjacency double-counts each.
		tot := 0
		for x := 0; x < h.N(); x++ {
			tot += len(h.Adj(x))
		}
		want := 2 * (2*g.M() + 2*g.M() + g.M())
		if tot != want {
			t.Fatalf("%s: arc slots=%d want %d", name, tot, want)
		}
	}
}

func TestFaceCycles(t *testing.T) {
	for name, g := range families(t) {
		h := New(g)
		if err := h.CheckFaceCycles(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestChordsRealizeDualEdges(t *testing.T) {
	for name, g := range families(t) {
		h := New(g)
		du := g.Dual()
		for e := 0; e < g.M(); e++ {
			a, b := h.ChordOf(e)
			fa, fb := h.FaceOfCopy(a), h.FaceOfCopy(b)
			d := planar.ForwardDart(e)
			t1, t2 := du.Tail(d), du.Head(d)
			if !(fa == t1 && fb == t2) && !(fa == t2 && fb == t1) {
				t.Fatalf("%s edge %d: chord spans faces (%d,%d), dual edge is (%d,%d)",
					name, e, fa, fb, t1, t2)
			}
			// Both chord endpoints are copies of the same primal vertex
			// (they simulate the dual edge locally).
			if h.Owner(a) != h.Owner(b) {
				t.Fatalf("%s edge %d: chord endpoints owned by %d and %d",
					name, e, h.Owner(a), h.Owner(b))
			}
		}
	}
}

func TestDiameterAtMost3D(t *testing.T) {
	for name, g := range families(t) {
		if g.N() > 200 {
			continue
		}
		h := New(g)
		hd := 0
		for x := 0; x < h.N(); x++ {
			if d := h.BFSDepth(x); d > hd {
				hd = d
			}
		}
		gd := g.Diameter()
		if hd > 3*gd+3 {
			t.Fatalf("%s: diam(hatG)=%d > 3*%d+3", name, hd, gd)
		}
	}
}

func TestOwnersAndCorners(t *testing.T) {
	g := planar.Grid(3, 4)
	h := New(g)
	for v := 0; v < g.N(); v++ {
		if !h.IsStarCenter(v) || h.Owner(v) != v || h.Corner(v) != -1 {
			t.Fatalf("star center %d misclassified", v)
		}
		for c := 0; c < g.Degree(v); c++ {
			x := h.CopyID(v, c)
			if h.IsStarCenter(x) {
				t.Fatalf("copy %d classified as star center", x)
			}
			if h.Owner(x) != v || h.Corner(x) != c {
				t.Fatalf("copy (%d,%d) -> owner=%d corner=%d", v, c, h.Owner(x), h.Corner(x))
			}
		}
	}
}

func TestCopiesPerFaceMatchBoundaryLength(t *testing.T) {
	// Each face's ring cycle must have exactly as many copies as boundary
	// darts (each dart contributes one corner visit).
	for name, g := range families(t) {
		h := New(g)
		fd := g.Faces()
		cnt := make([]int, fd.NumFaces())
		for x := g.N(); x < h.N(); x++ {
			cnt[h.FaceOfCopy(x)]++
		}
		for f := 0; f < fd.NumFaces(); f++ {
			if cnt[f] != fd.Len(f) {
				t.Fatalf("%s face %d: %d copies, want %d", name, f, cnt[f], fd.Len(f))
			}
		}
	}
}

// Accessors only the tests read: the copy ↔ (vertex, corner) maps, the
// chord realizing a dual edge, and a copy's eccentricity.

// Owner returns the primal vertex that simulates Ĝ vertex x.
func (h *Graph) Owner(x int) int { return h.owner[x] }

// Corner returns the corner index of copy x (-1 for star centers).
func (h *Graph) Corner(x int) int {
	if h.IsStarCenter(x) {
		return -1
	}
	return x - h.base[h.owner[x]]
}

// CopyID returns the Ĝ vertex for corner c of primal vertex v.
func (h *Graph) CopyID(v, c int) int { return h.base[v] + c }

// ChordOf returns the two Ĝ endpoints realizing the dual edge of primal edge
// e (both are corner copies of e's higher-ID endpoint).
func (h *Graph) ChordOf(e int) (int, int) {
	g := h.prim
	fw := planar.ForwardDart(e)
	d := fw
	if g.Tail(fw) < g.Head(fw) {
		d = planar.Rev(fw)
	}
	v := g.Tail(d)
	return h.base[v] + h.cornerBefore(v, d), h.base[v] + g.RotationIndex(d)
}

// BFSDepth returns the eccentricity of Ĝ vertex x (used to test the diameter
// ≤ 3D property).
func (h *Graph) BFSDepth(x int) int {
	dist := make([]int, h.numV)
	for i := range dist {
		dist[i] = -1
	}
	dist[x] = 0
	queue := []int{x}
	depth := 0
	for len(queue) > 0 {
		y := queue[0]
		queue = queue[1:]
		if dist[y] > depth {
			depth = dist[y]
		}
		for _, a := range h.Adj(y) {
			if dist[a.To] == -1 {
				dist[a.To] = dist[y] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return depth
}
