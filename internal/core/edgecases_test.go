package core

import (
	"math"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

func TestMaxFlowNestedTriangles(t *testing.T) {
	// Worst-case-diameter family: D = Θ(n).
	rng := planar.NewRand(101)
	g := planar.NestedTriangles(6)
	g = planar.WithRandomWeights(g, rng, 1, 5, 1, 10)
	g = planar.WithRandomDirections(g, rng)
	s, tt := 0, g.N()-1
	res, err := MaxFlow(prep(g), s, tt, Options{}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != DinicValue(g, s, tt) {
		t.Fatalf("value=%d want %d", res.Value, DinicValue(g, s, tt))
	}
	if err := CheckFlow(g, s, tt, res.Flow, res.Value); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowAdjacentPair(t *testing.T) {
	g := planar.Grid(3, 3)
	res, err := MaxFlow(prep(g), 0, 1, Options{LeafLimit: 6}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != DinicValue(g, 0, 1) {
		t.Fatalf("value=%d want %d", res.Value, DinicValue(g, 0, 1))
	}
}

func TestMaxFlowZeroCapacityEdges(t *testing.T) {
	rng := planar.NewRand(103)
	g := planar.Grid(3, 4).WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		old.Cap = rng.Int64N(4) // zeros included
		return old
	})
	s, tt := 0, g.N()-1
	res, err := MaxFlow(prep(g), s, tt, Options{LeafLimit: 8}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != DinicValue(g, s, tt) {
		t.Fatalf("value=%d want %d", res.Value, DinicValue(g, s, tt))
	}
	if err := CheckFlow(g, s, tt, res.Flow, res.Value); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowSaturatedSource(t *testing.T) {
	// All capacity concentrated on one source edge: value capped by it.
	g := planar.Grid(2, 3).WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		old.Cap = 100
		return old
	})
	// Vertex 0's two incident edges get capacity 1 and 2.
	first := true
	g = g.WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		if old.U == 0 || old.V == 0 {
			if first {
				old.Cap = 1
				first = false
			} else {
				old.Cap = 2
			}
		}
		return old
	})
	res, err := MaxFlow(prep(g), 0, 5, Options{LeafLimit: 6}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != DinicValue(g, 0, 5) {
		t.Fatalf("value=%d want %d", res.Value, DinicValue(g, 0, 5))
	}
	if res.Value > 3 {
		t.Fatalf("value=%d exceeds source capacity 3", res.Value)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := planar.Grid(2, 2)
	if _, err := MaxFlow(prep(g), 1, 1, Options{}, ledger.New()); err == nil {
		t.Fatal("s==t must error")
	}
	if _, err := MaxFlow(prep(g), -1, 2, Options{}, ledger.New()); err == nil {
		t.Fatal("out-of-range s must error")
	}
	if _, err := MaxFlow(prep(g), 0, 99, Options{}, ledger.New()); err == nil {
		t.Fatal("out-of-range t must error")
	}
}

func TestGirthNestedTriangles(t *testing.T) {
	rng := planar.NewRand(107)
	g := planar.NestedTriangles(8)
	g = planar.WithRandomWeights(g, rng, 1, 50, 1, 1)
	res, err := Girth(prep(g), ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	us := make([]int, g.M())
	vs := make([]int, g.M())
	ws := make([]int64, g.M())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		us[e], vs[e], ws[e] = ed.U, ed.V, ed.Weight
	}
	want := spath.UndirectedGirth(g.N(), us, vs, ws)
	if res.Weight != want {
		t.Fatalf("girth=%d want %d", res.Weight, want)
	}
}

func TestGirthCylinder(t *testing.T) {
	// Cylinders have many parallel dual edges (ring faces share several
	// edges with the disk faces): stresses deactivation.
	rng := planar.NewRand(109)
	g := planar.Cylinder(3, 5)
	g = planar.WithRandomWeights(g, rng, 1, 20, 1, 1)
	res, err := Girth(prep(g), ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	us := make([]int, g.M())
	vs := make([]int, g.M())
	ws := make([]int64, g.M())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		us[e], vs[e], ws[e] = ed.U, ed.V, ed.Weight
	}
	want := spath.UndirectedGirth(g.N(), us, vs, ws)
	if res.Weight != want {
		t.Fatalf("girth=%d want %d", res.Weight, want)
	}
	if err := checkCycle(g, res.CycleEdges, res.Weight); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalMinCutNestedTriangles(t *testing.T) {
	// Nested triangles admit a natural strongly connected orientation:
	// rings oriented around, spokes alternating in/out.
	g0 := planar.NestedTriangles(4)
	g := g0.WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		old.Weight = int64(1 + e%7)
		return old
	})
	res, err := GlobalMinCut(prep(g), Options{LeafLimit: 8}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	us := make([]int, g.M())
	vs := make([]int, g.M())
	ws := make([]int64, g.M())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		us[e], vs[e], ws[e] = ed.U, ed.V, ed.Weight
	}
	want := spath.DirectedGlobalMinCut(g.N(), us, vs, ws)
	if res.Value != want {
		t.Fatalf("cut=%d want %d", res.Value, want)
	}
}

func TestSTPlanarEpsilonSweep(t *testing.T) {
	rng := planar.NewRand(113)
	g := planar.Grid(4, 5)
	g = planar.WithRandomWeights(g, rng, 1, 1, 200, 900)
	s, tt := 0, g.N()-1
	opt := UndirectedDinicValue(g, s, tt)
	prev := int64(-1)
	for _, eps := range []float64{0.5, 0.2, 0.1, 0.05, 0} {
		res, err := STPlanarMaxFlow(prep(g), s, tt, eps, ledger.New())
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if res.Value > opt {
			t.Fatalf("eps=%v: value %d exceeds optimum %d", eps, res.Value, opt)
		}
		if res.Value < prev {
			t.Fatalf("eps=%v: value %d decreased from %d at larger eps", eps, res.Value, prev)
		}
		prev = res.Value
		if err := CheckUndirectedFlow(g, s, tt, res.Flow, res.Value); err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
	}
	if prev != opt {
		t.Fatalf("eps=0 value %d != optimum %d", prev, opt)
	}
}

func TestSTPlanarInvalidEps(t *testing.T) {
	g := planar.Grid(3, 3)
	for _, eps := range []float64{-0.1, 1.0, 2.5, math.NaN()} {
		if _, err := STPlanarMaxFlow(prep(g), 0, 8, eps, ledger.New()); err == nil {
			t.Fatalf("eps=%v accepted by the flow", eps)
		}
		if _, err := STPlanarMinCut(prep(g), 0, 8, eps, ledger.New()); err == nil {
			t.Fatalf("eps=%v accepted by the cut", eps)
		}
	}
}

func TestDirectedGirthNestedRings(t *testing.T) {
	// All ring edges oriented the same way: shortest cycle is the cheapest
	// ring (spokes form no directed cycles without return edges).
	g := planar.NestedTriangles(5).WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		old.Weight = int64(1 + e)
		return old
	})
	c, err := DirectedGirth(prep(g), Options{LeafLimit: 8}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	want := spath.DirectedMinCycle(primalDigraph(g))
	if c != want {
		t.Fatalf("girth=%d want %d", c, want)
	}
}
