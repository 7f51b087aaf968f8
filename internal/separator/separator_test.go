package separator

import (
	"testing"

	"planarflow/internal/planar"
)

func allEdges(g *planar.Graph) []bool {
	in := make([]bool, g.M())
	for i := range in {
		in[i] = true
	}
	return in
}

// findOn runs the separator on the subgraph in, with its BFS tree rooted
// where the BDD builder roots it: at the first kept edge's tail.
func findOn(g *planar.Graph, in []bool, sf *planar.SubFaces) *Result {
	root := 0
	for e := range in {
		if in[e] {
			root = g.Edge(e).U
			break
		}
	}
	bfs := g.BFSWithin(root, func(d planar.Dart) bool { return in[planar.EdgeOf(d)] })
	return FindCycleSeparator(g, in, sf, bfs, nil)
}

// checkSeparator verifies the structural invariants of a separator result:
// crossing edges == cycle real edges, cycle is a valid tree path + EX, and
// both regions are non-empty.
func checkSeparator(t *testing.T, g *planar.Graph, edgeIn []bool, res *Result) {
	t.Helper()
	if !res.Found {
		t.Fatal("no separator found")
	}
	// 1. The set of bag edges whose darts disagree on side must be exactly
	// the real cycle edges (interdigitating-tree fact).
	crossing := map[int]bool{}
	for e := 0; e < g.M(); e++ {
		if !edgeIn[e] {
			continue
		}
		sf, sb := res.Side[planar.ForwardDart(e)], res.Side[planar.BackwardDart(e)]
		if sf < 0 || sb < 0 {
			t.Fatalf("bag edge %d has unassigned dart side", e)
		}
		if sf != sb {
			crossing[e] = true
		}
	}
	cyc := map[int]bool{}
	for _, e := range res.CycleEdges {
		cyc[e] = true
	}
	if len(crossing) != len(cyc) {
		t.Fatalf("crossing=%d cycle edges=%d", len(crossing), len(cyc))
	}
	for e := range crossing {
		if !cyc[e] {
			t.Fatalf("edge %d crosses regions but is not on the cycle", e)
		}
	}
	// 2. Cycle vertices trace a path whose consecutive pairs are joined by
	// the cycle edges, ending at EX's endpoints.
	if res.CycleVertices[0] != res.EX.U && res.CycleVertices[0] != res.EX.V {
		t.Fatal("cycle path does not start at an EX endpoint")
	}
	last := res.CycleVertices[len(res.CycleVertices)-1]
	if last != res.EX.U && last != res.EX.V {
		t.Fatal("cycle path does not end at an EX endpoint")
	}
	// 3. Balance sanity.
	if res.InsideWeight <= 0 || res.InsideWeight >= res.TotalWeight {
		t.Fatalf("degenerate region split: %d/%d", res.InsideWeight, res.TotalWeight)
	}
}

func TestSeparatorGrid(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 6}, {8, 8}, {2, 20}} {
		g := planar.Grid(dims[0], dims[1])
		in := allEdges(g)
		sf := planar.NewSubFaces(g, in)
		res := findOn(g, in, sf)
		checkSeparator(t, g, in, res)
		if res.Balance > 0.90 {
			t.Fatalf("grid %v: balance %.2f too poor", dims, res.Balance)
		}
	}
}

func TestSeparatorTriangulation(t *testing.T) {
	rng := planar.NewRand(17)
	for _, n := range []int{10, 50, 200} {
		g := planar.StackedTriangulation(n, rng)
		in := allEdges(g)
		sf := planar.NewSubFaces(g, in)
		res := findOn(g, in, sf)
		checkSeparator(t, g, in, res)
		if res.Balance > 0.80 {
			t.Fatalf("stacked n=%d: balance %.2f", n, res.Balance)
		}
	}
}

func TestSeparatorSparse(t *testing.T) {
	rng := planar.NewRand(23)
	for trial := 0; trial < 10; trial++ {
		g0 := planar.StackedTriangulation(60, rng)
		g := planar.RemoveRandomEdges(g0, rng, 50)
		in := allEdges(g)
		sf := planar.NewSubFaces(g, in)
		res := findOn(g, in, sf)
		if !res.Found {
			continue // very sparse bags may be near-trees
		}
		checkSeparator(t, g, in, res)
	}
}

func TestSeparatorTreeBagHasVirtualEX(t *testing.T) {
	// A path graph has no real cycles: any separator must use a virtual
	// chord (the triangulation of its single orbit).
	g := planar.Grid(1, 8)
	in := allEdges(g)
	sf := planar.NewSubFaces(g, in)
	res := findOn(g, in, sf)
	if !res.Found {
		t.Fatal("path bag should still split via a virtual chord")
	}
	if res.EX.Real {
		t.Fatal("EX must be virtual on a tree bag")
	}
	checkSeparator(t, g, in, res)
}

func TestSeparatorOnSubBag(t *testing.T) {
	// Run the separator on the interior child of a first split: exercises
	// bags with holes.
	g := planar.Grid(7, 7)
	in := allEdges(g)
	sf := planar.NewSubFaces(g, in)
	res := findOn(g, in, sf)
	checkSeparator(t, g, in, res)
	// Child bag: edges with a dart on side 1, plus cycle edges.
	childIn := make([]bool, g.M())
	cnt := 0
	for e := 0; e < g.M(); e++ {
		if !in[e] {
			continue
		}
		if res.Side[planar.ForwardDart(e)] == 1 || res.Side[planar.BackwardDart(e)] == 1 {
			childIn[e] = true
			cnt++
		}
	}
	if cnt < 8 {
		t.Skip("child too small")
	}
	csf := planar.NewSubFaces(g, childIn)
	cres := findOn(g, childIn, csf)
	if cres.Found {
		checkSeparator(t, g, childIn, cres)
	}
}

func TestSeparatorCycleIsTreePath(t *testing.T) {
	g := planar.Grid(6, 6)
	in := allEdges(g)
	sf := planar.NewSubFaces(g, in)
	res := findOn(g, in, sf)
	// Consecutive cycle vertices must be adjacent in G via cycle edges.
	adj := map[[2]int]bool{}
	for _, e := range res.CycleEdges {
		u, v := g.Edge(e).U, g.Edge(e).V
		adj[[2]int{u, v}] = true
		adj[[2]int{v, u}] = true
	}
	for i := 0; i+1 < len(res.CycleVertices); i++ {
		a, b := res.CycleVertices[i], res.CycleVertices[i+1]
		if !adj[[2]int{a, b}] {
			t.Fatalf("cycle vertices %d,%d not joined by a cycle edge", a, b)
		}
	}
	// No repeated vertices on the path.
	seen := map[int]bool{}
	for _, v := range res.CycleVertices {
		if seen[v] {
			t.Fatalf("vertex %d repeats on separator path", v)
		}
		seen[v] = true
	}
}

func TestSubFacesEulerOnBags(t *testing.T) {
	// v - m + f = 1 + c for sub-embeddings (c connected components).
	rng := planar.NewRand(3)
	for trial := 0; trial < 20; trial++ {
		g := planar.StackedTriangulation(30, rng)
		in := make([]bool, g.M())
		m := 0
		for e := range in {
			if rng.IntN(4) > 0 {
				in[e] = true
				m++
			}
		}
		if m == 0 {
			continue
		}
		sf := planar.NewSubFaces(g, in)
		// Count touched vertices and components.
		touched := map[int]bool{}
		for e := 0; e < g.M(); e++ {
			if in[e] {
				touched[g.Edge(e).U] = true
				touched[g.Edge(e).V] = true
			}
		}
		comp := map[int]int{}
		numComp := 0
		for v := range touched {
			if _, ok := comp[v]; ok {
				continue
			}
			numComp++
			b := g.BFSWithin(v, func(d planar.Dart) bool { return in[planar.EdgeOf(d)] })
			for u := range touched {
				if b.Dist[u] >= 0 {
					comp[u] = numComp
				}
			}
		}
		if len(touched)-m+sf.NumFaces() != 1+numComp {
			t.Fatalf("trial %d: euler v=%d m=%d f=%d c=%d",
				trial, len(touched), m, sf.NumFaces(), numComp)
		}
	}
}
