package core

import (
	"fmt"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

func primalDigraph(g *planar.Graph) *spath.Digraph {
	dg := spath.NewDigraph(g.N())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		dg.AddArc(ed.U, ed.V, ed.Weight, e)
	}
	return dg
}

func TestDirectedGirthAcyclic(t *testing.T) {
	// Default grids point right/down: no directed cycles.
	g := planar.Grid(4, 4)
	c, err := DirectedGirth(prep(g), Options{LeafLimit: 8}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if c < spath.Inf {
		t.Fatalf("acyclic orientation has cycle of weight %d", c)
	}
}

func TestDirectedGirthBoustrophedon(t *testing.T) {
	g := planar.BoustrophedonGrid(4, 4)
	c, err := DirectedGirth(prep(g), Options{LeafLimit: 8}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	want := spath.DirectedMinCycle(primalDigraph(g))
	if c != want {
		t.Fatalf("girth=%d want %d", c, want)
	}
}

func TestDirectedGirthMatchesBaseline(t *testing.T) {
	rng := planar.NewRand(91)
	type row struct {
		name      string
		g         *planar.Graph
		leafLimit int
	}
	weighted := func(g *planar.Graph) *planar.Graph {
		return g.WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
			old.Weight = rng.Int64N(40)
			return old
		})
	}
	var rows []row
	for trial := 0; trial < 12; trial++ {
		var g *planar.Graph
		switch trial % 3 {
		case 0:
			g = planar.BoustrophedonGrid(2+rng.IntN(5), 2+rng.IntN(5))
		case 1:
			g = planar.WithRandomDirections(planar.Grid(3+rng.IntN(3), 3+rng.IntN(4)), rng)
		default:
			g = planar.WithRandomDirections(planar.StackedTriangulation(8+rng.IntN(25), rng), rng)
		}
		rows = append(rows, row{fmt.Sprintf("trial %d", trial), weighted(g), 10})
	}
	// A deep tree: many bags, separators of every shape, closing arcs with
	// one dart or both in the bag.
	rows = append(rows, row{"triangulation120",
		weighted(planar.WithRandomDirections(planar.StackedTriangulation(120, rng), rng)), 8})
	for _, r := range rows {
		led := ledger.New()
		c, err := DirectedGirth(prep(r.g), Options{LeafLimit: r.leafLimit}, led)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		want := spath.DirectedMinCycle(primalDigraph(r.g))
		if c != want {
			t.Fatalf("%s: girth=%d want %d (n=%d)", r.name, c, want, r.g.N())
		}
		if led.Total() == 0 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestDirectedGirthRejectsNegative(t *testing.T) {
	g := planar.Grid(3, 3).WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		old.Weight = -1
		return old
	})
	if _, err := DirectedGirth(prep(g), Options{}, ledger.New()); err == nil {
		t.Fatal("expected negative-weight rejection")
	}
}

func TestGirthVsSSSPRouteRounds(t *testing.T) {
	// The paper's Question 1.6 contrast: the dual-cut girth (Thm 1.7) must
	// be asymptotically cheaper than the SSSP route [36] as D grows. Check
	// the ratio grows with D on squares.
	ratio := func(k int) float64 {
		g := planar.Grid(k, k)
		ledA := ledger.New()
		if _, err := Girth(prep(planar.WithRandomWeights(g, planar.NewRand(1), 1, 100, 1, 1)), ledA); err != nil {
			t.Fatal(err)
		}
		ledB := ledger.New()
		gb := planar.BoustrophedonGrid(k, k)
		if _, err := DirectedGirth(prep(gb), Options{}, ledB); err != nil {
			t.Fatal(err)
		}
		return float64(ledB.Total()) / float64(ledA.Total())
	}
	small, large := ratio(6), ratio(14)
	if large <= small*0.5 {
		t.Fatalf("SSSP-route/dual-cut round ratio should not shrink with D: %f -> %f", small, large)
	}
}
