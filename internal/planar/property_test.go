package planar

import (
	"testing"
	"testing/quick"
)

// randomPlanar draws a random connected embedded planar graph from the
// generator families, sized by the quick-check inputs.
func randomPlanar(seed int64, kind, size int) *Graph {
	rng := NewRand(seed)
	n := 3 + size%40
	switch kind % 4 {
	case 0:
		r := 2 + size%6
		c := 2 + (size/7)%6
		return Grid(r, c)
	case 1:
		r := 1 + size%4
		c := 3 + (size/5)%6
		return Cylinder(r, c)
	case 2:
		return StackedTriangulation(n, rng)
	default:
		g := StackedTriangulation(n, rng)
		return RemoveRandomEdges(g, rng, n/3)
	}
}

func TestQuickEulerHolds(t *testing.T) {
	prop := func(seed int64, kind, size uint8) bool {
		g := randomPlanar(seed, int(kind), int(size))
		return g.N()-g.M()+g.Faces().NumFaces() == 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFacePermutationIsBijection(t *testing.T) {
	prop := func(seed int64, kind, size uint8) bool {
		g := randomPlanar(seed, int(kind), int(size))
		seen := make([]bool, g.NumDarts())
		for d := Dart(0); int(d) < g.NumDarts(); d++ {
			s := g.FaceSuccessor(d)
			if seen[s] {
				return false
			}
			seen[s] = true
			if g.FacePredecessor(s) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDualDegreeSum(t *testing.T) {
	// Handshake lemma in the dual: sum of face lengths == 2m, and each
	// primal edge's two darts sit on the faces that the dual edge connects.
	prop := func(seed int64, kind, size uint8) bool {
		g := randomPlanar(seed, int(kind), int(size))
		du := g.Dual()
		total := 0
		for f := 0; f < du.NumNodes(); f++ {
			total += g.Faces().Len(f)
		}
		if total != 2*g.M() {
			return false
		}
		for e := 0; e < g.M(); e++ {
			d := ForwardDart(e)
			if du.Tail(d) != du.Head(Rev(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBFSTreeIsShortestPathTree(t *testing.T) {
	prop := func(seed int64, kind, size uint8) bool {
		g := randomPlanar(seed, int(kind), int(size))
		b := g.BFS(0)
		for v := 0; v < g.N(); v++ {
			if b.Dist[v] < 0 {
				return false // connected graphs only
			}
			for _, d := range g.Rotation(v) {
				u := g.Head(d)
				if b.Dist[u] > b.Dist[v]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
