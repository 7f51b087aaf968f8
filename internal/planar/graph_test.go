package planar

import (
	"reflect"
	"slices"
	"testing"
)

// PrevInRotation returns the dart preceding d in the cyclic order at Tail(d).
func (g *Graph) PrevInRotation(d Dart) Dart {
	v := g.Tail(d)
	i := g.rotPos[d] - 1
	if i < 0 {
		i = len(g.rot[v]) - 1
	}
	return g.rot[v][i]
}

// FacePredecessor inverts FaceSuccessor.
func (g *Graph) FacePredecessor(d Dart) Dart { return Rev(g.PrevInRotation(d)) }

func triangle(t *testing.T) *Graph {
	t.Helper()
	edges := []Edge{{U: 0, V: 1, Weight: 1, Cap: 1}, {U: 1, V: 2, Weight: 1, Cap: 1}, {U: 2, V: 0, Weight: 1, Cap: 1}}
	rot := [][]Dart{
		{ForwardDart(0), BackwardDart(2)},
		{ForwardDart(1), BackwardDart(0)},
		{ForwardDart(2), BackwardDart(1)},
	}
	g, err := NewGraph(3, edges, rot)
	if err != nil {
		t.Fatalf("triangle: %v", err)
	}
	return g
}

func TestTriangleBasics(t *testing.T) {
	g := triangle(t)
	if g.N() != 3 || g.M() != 3 || g.NumDarts() != 6 {
		t.Fatalf("n=%d m=%d darts=%d", g.N(), g.M(), g.NumDarts())
	}
	if g.Faces().NumFaces() != 2 {
		t.Fatalf("faces=%d want 2", g.Faces().NumFaces())
	}
	if g.Tail(ForwardDart(0)) != 0 || g.Head(ForwardDart(0)) != 1 {
		t.Fatal("forward dart endpoints wrong")
	}
	if g.Tail(BackwardDart(0)) != 1 || g.Head(BackwardDart(0)) != 0 {
		t.Fatal("backward dart endpoints wrong")
	}
}

func TestDartAlgebra(t *testing.T) {
	for e := 0; e < 10; e++ {
		f, b := ForwardDart(e), BackwardDart(e)
		if Rev(f) != b || Rev(b) != f {
			t.Fatalf("rev broken for edge %d", e)
		}
		if EdgeOf(f) != e || EdgeOf(b) != e {
			t.Fatalf("edgeOf broken for edge %d", e)
		}
		if !IsForward(f) || IsForward(b) {
			t.Fatalf("isForward broken for edge %d", e)
		}
	}
}

func TestNewGraphRejectsBadRotation(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}}
	// Dart listed at wrong vertex.
	_, err := NewGraph(2, edges, [][]Dart{{ForwardDart(0), BackwardDart(0)}, {}})
	if err == nil {
		t.Fatal("expected error for dart at wrong vertex")
	}
	// Missing dart.
	_, err = NewGraph(2, edges, [][]Dart{{ForwardDart(0)}, {}})
	if err == nil {
		t.Fatal("expected error for missing dart")
	}
	// Duplicate dart.
	_, err = NewGraph(2, edges, [][]Dart{{ForwardDart(0)}, {BackwardDart(0), BackwardDart(0)}})
	if err == nil {
		t.Fatal("expected error for duplicate dart")
	}
}

func TestNewGraphRejectsDisconnected(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}}
	_, err := NewGraph(3, edges, [][]Dart{{ForwardDart(0)}, {BackwardDart(0)}, {}})
	if err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}

func checkEuler(t *testing.T, g *Graph, name string) {
	t.Helper()
	f := g.Faces().NumFaces()
	if g.N()-g.M()+f != 2 {
		t.Fatalf("%s: Euler failed n=%d m=%d f=%d", name, g.N(), g.M(), f)
	}
	// Every dart on exactly one face, and cycles are closed orbits.
	fd := g.Faces()
	seen := make([]int, g.NumDarts())
	for fi := 0; fi < fd.NumFaces(); fi++ {
		cyc := fd.Cycle(fi)
		for i, d := range cyc {
			seen[d]++
			if fd.FaceOf(d) != fi {
				t.Fatalf("%s: faceOf mismatch", name)
			}
			next := cyc[(i+1)%len(cyc)]
			if g.FaceSuccessor(d) != next {
				t.Fatalf("%s: cycle not an orbit of FaceSuccessor", name)
			}
			if g.FacePredecessor(next) != d {
				t.Fatalf("%s: FacePredecessor does not invert FaceSuccessor", name)
			}
		}
	}
	for d, c := range seen {
		if c != 1 {
			t.Fatalf("%s: dart %d on %d faces", name, d, c)
		}
	}
}

// TestCycleAppendLeavesNextFace: every face's darts share one slab, so
// Cycle caps its slice at the face's end; appending to face f copies
// instead of writing over face f+1.
func TestCycleAppendLeavesNextFace(t *testing.T) {
	rng := NewRand(46)
	tri := StackedTriangulation(60, rng)
	for name, g := range map[string]*Graph{
		"grid1x2": Grid(1, 2),
		"grid5x8": Grid(5, 8),
		"snake":   BoustrophedonGrid(6, 6),
		"tri":     tri,
		"sparse":  RemoveRandomEdges(tri, rng, 60),
		"tree":    RemoveRandomEdges(tri, rng, tri.M()),
	} {
		fd := g.Faces()
		for f := 0; f+1 < fd.NumFaces(); f++ {
			next := append([]Dart(nil), fd.Cycle(f+1)...)
			grown := append(fd.Cycle(f), NoDart, NoDart)
			if len(grown) != fd.Len(f)+2 {
				t.Fatalf("%s: face %d grew to %d darts, want %d", name, f, len(grown), fd.Len(f)+2)
			}
			for i, d := range fd.Cycle(f + 1) {
				if d != next[i] {
					t.Fatalf("%s: appending to face %d changed face %d at %d: %d, was %d", name, f, f+1, i, d, next[i])
				}
			}
		}
		checkEuler(t, g, name)
	}
}

func TestGridEuler(t *testing.T) {
	for _, dims := range [][2]int{{1, 2}, {2, 2}, {3, 3}, {4, 7}, {10, 3}, {6, 6}} {
		g := Grid(dims[0], dims[1])
		checkEuler(t, g, "grid")
		wantFaces := (dims[0]-1)*(dims[1]-1) + 1
		if g.Faces().NumFaces() != wantFaces {
			t.Fatalf("grid %v: faces=%d want %d", dims, g.Faces().NumFaces(), wantFaces)
		}
	}
}

func TestGridDiameter(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 5}, {4, 4}} {
		g := Grid(dims[0], dims[1])
		want := dims[0] + dims[1] - 2
		if d := g.Diameter(); d != want {
			t.Fatalf("grid %v diameter=%d want %d", dims, d, want)
		}
	}
}

func TestCylinderEuler(t *testing.T) {
	for _, dims := range [][2]int{{1, 3}, {2, 4}, {3, 5}, {5, 8}} {
		g := Cylinder(dims[0], dims[1])
		checkEuler(t, g, "cylinder")
	}
}

func TestStackedTriangulationEuler(t *testing.T) {
	rng := NewRand(1)
	for _, n := range []int{3, 4, 5, 10, 50, 200} {
		g := StackedTriangulation(n, rng)
		checkEuler(t, g, "stacked")
		if g.M() != 3*n-6 {
			t.Fatalf("stacked n=%d: m=%d want %d", n, g.M(), 3*n-6)
		}
		// All faces must be triangles in a maximal planar graph.
		fd := g.Faces()
		for f := 0; f < fd.NumFaces(); f++ {
			if fd.Len(f) != 3 {
				t.Fatalf("stacked n=%d: face %d has %d darts", n, f, fd.Len(f))
			}
		}
	}
}

func TestRemoveRandomEdges(t *testing.T) {
	rng := NewRand(7)
	g := Grid(6, 6)
	sub := RemoveRandomEdges(g, rng, 10)
	checkEuler(t, sub, "subgraph")
	if !sub.Connected() {
		t.Fatal("subgraph disconnected")
	}
	if sub.M() >= g.M() {
		t.Fatal("no edges removed")
	}
}

func TestWithRandomDirections(t *testing.T) {
	rng := NewRand(3)
	g := Grid(4, 5)
	dg := WithRandomDirections(g, rng)
	checkEuler(t, dg, "directed grid")
	if dg.N() != g.N() || dg.M() != g.M() {
		t.Fatal("direction flip changed size")
	}
	// Undirected support must be identical.
	for e := 0; e < g.M(); e++ {
		a, b := g.Edge(e), dg.Edge(e)
		sameWay := a.U == b.U && a.V == b.V
		flipped := a.U == b.V && a.V == b.U
		if !sameWay && !flipped {
			t.Fatalf("edge %d endpoints changed", e)
		}
	}
}

func TestWithEdgeAttrs(t *testing.T) {
	g := Grid(3, 3)
	g2 := g.WithEdgeAttrs(func(e int, old Edge) Edge {
		old.Weight = int64(e + 10)
		old.Cap = int64(2*e + 1)
		// Attempt to change endpoints must be ignored.
		old.U, old.V = 0, 0
		return old
	})
	for e := 0; e < g2.M(); e++ {
		if g2.Edge(e).Weight != int64(e+10) || g2.Edge(e).Cap != int64(2*e+1) {
			t.Fatalf("attrs not applied at %d", e)
		}
		if g2.Edge(e).U != g.Edge(e).U || g2.Edge(e).V != g.Edge(e).V {
			t.Fatalf("endpoints changed at %d", e)
		}
	}
}

func TestBoustrophedonGridStronglyConnected(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 6}, {5, 5}, {6, 4}} {
		g := BoustrophedonGrid(dims[0], dims[1])
		checkEuler(t, g, "boustrophedon")
		// Directed reachability from every vertex must cover the graph.
		for src := 0; src < g.N(); src++ {
			seen := make([]bool, g.N())
			seen[src] = true
			stack := []int{src}
			cnt := 1
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, d := range g.Rotation(v) {
					if !IsForward(d) {
						continue
					}
					u := g.Head(d)
					if !seen[u] {
						seen[u] = true
						cnt++
						stack = append(stack, u)
					}
				}
			}
			if cnt != g.N() {
				t.Fatalf("grid %v not strongly connected from %d (%d/%d)", dims, src, cnt, g.N())
			}
		}
	}
}

func TestBFS(t *testing.T) {
	g := Grid(4, 6)
	b := g.BFS(0)
	if b.Depth != 4+6-2 {
		t.Fatalf("depth=%d want %d", b.Depth, 8)
	}
	for v := 0; v < g.N(); v++ {
		r, c := v/6, v%6
		if b.Dist[v] != r+c {
			t.Fatalf("dist[%d]=%d want %d", v, b.Dist[v], r+c)
		}
		if v != 0 {
			p := b.Parent[v]
			if g.Head(p) != v || b.Dist[g.Tail(p)] != b.Dist[v]-1 {
				t.Fatalf("parent pointer wrong at %d", v)
			}
		}
	}
	if len(b.Order) != g.N() {
		t.Fatal("order incomplete")
	}
}

// TestBFSMatchesBFSWithin holds BFS to BFSWithin with every dart allowed,
// field for field, from several roots of grids, a snake, triangulations and
// edge-deleted subgraphs.
func TestBFSMatchesBFSWithin(t *testing.T) {
	rng := NewRand(5)
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"grid1x2", Grid(1, 2)},
		{"grid4x6", Grid(4, 6)},
		{"grid9x9", Grid(9, 9)},
		{"snake12x12", BoustrophedonGrid(12, 12)},
		{"triangulation40", StackedTriangulation(40, NewRand(1))},
		{"triangulation100", StackedTriangulation(100, NewRand(2))},
		{"grid8x8-20", RemoveRandomEdges(Grid(8, 8), NewRand(3), 20)},
		{"triangulation60-30", RemoveRandomEdges(StackedTriangulation(60, NewRand(4)), NewRand(4), 30)},
	} {
		for _, root := range []int{0, c.g.N() - 1, rng.IntN(c.g.N())} {
			got, want := c.g.BFS(root), c.g.BFSWithin(root, func(Dart) bool { return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s from %d: BFS %+v, BFSWithin %+v", c.name, root, got, want)
			}
			if len(got.Order) != c.g.N() {
				t.Fatalf("%s from %d: %d of %d vertices visited", c.name, root, len(got.Order), c.g.N())
			}
		}
	}
}

func TestCommonFaces(t *testing.T) {
	g := Grid(3, 3)
	// Corner 0 and its horizontal neighbor 1 share two faces (one interior
	// quad and the outer face).
	cf := g.CommonFaces(0, 1)
	if len(cf) != 2 {
		t.Fatalf("common faces of adjacent corner pair = %d, want 2", len(cf))
	}
	// Opposite corners 0 and 8 share only the outer face.
	cf = g.CommonFaces(0, 8)
	if len(cf) != 1 {
		t.Fatalf("common faces of opposite corners = %d, want 1", len(cf))
	}
}

// TestAscendingFaceDarts: each face's Ascending list is its Cycle sorted, the
// lists together hold every dart once, and FirstCommonFace is the first of
// the map-based CommonFaces, or -1 where that is empty.
func TestAscendingFaceDarts(t *testing.T) {
	rng := NewRand(3)
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"grid3x3", Grid(3, 3)},
		{"grid7x5", Grid(7, 5)},
		{"cylinder4x9", Cylinder(4, 9)},
		{"snake6x6", BoustrophedonGrid(6, 6)},
		{"triangulation40", StackedTriangulation(40, rng)},
		{"triangulation200", StackedTriangulation(200, rng)},
		{"sparse8x8", RemoveRandomEdges(Grid(8, 8), rng, 30)},
		{"sparseTriangulation60", RemoveRandomEdges(StackedTriangulation(60, rng), rng, 60)},
	} {
		g, fd := c.g, c.g.Faces()
		seen := make([]int, g.NumDarts())
		for f := 0; f < fd.NumFaces(); f++ {
			want := slices.Clone(fd.Cycle(f))
			slices.Sort(want)
			if got := fd.Ascending(f); !slices.Equal(got, want) {
				t.Fatalf("%s face %d: Ascending %v, sorted Cycle %v", c.name, f, got, want)
			}
			for _, d := range fd.Ascending(f) {
				seen[d]++
			}
		}
		for d, n := range seen {
			if n != 1 {
				t.Fatalf("%s: dart %d listed %d times", c.name, d, n)
			}
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				want := -1
				if cf := g.CommonFaces(u, v); len(cf) > 0 {
					want = cf[0]
				}
				if f := g.FirstCommonFace(u, v); f != want {
					t.Fatalf("%s: FirstCommonFace(%d, %d) = %d, want %d", c.name, u, v, f, want)
				}
			}
		}
	}
}

func TestDualStructure(t *testing.T) {
	g := Grid(3, 3)
	du := g.Dual()
	if du.NumNodes() != 5 {
		t.Fatalf("dual nodes=%d want 5", du.NumNodes())
	}
	// Each dual dart leaves the face of its dart and enters the face of the
	// reversal; reversal symmetry must hold.
	for d := Dart(0); int(d) < g.NumDarts(); d++ {
		if du.Tail(d) != du.Head(Rev(d)) || du.Head(d) != du.Tail(Rev(d)) {
			t.Fatalf("dual reversal symmetry broken at dart %d", d)
		}
	}
	// Sum of face boundary lengths = number of darts.
	total := 0
	for f := 0; f < du.NumNodes(); f++ {
		total += g.Faces().Len(f)
	}
	if total != g.NumDarts() {
		t.Fatalf("boundary darts=%d want %d", total, g.NumDarts())
	}
}
