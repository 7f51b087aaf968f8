package core

import (
	"errors"
	"fmt"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// checkCycle verifies that edges form a closed (not necessarily simple in
// vertices, but even-degree and connected) cycle of the claimed total
// weight. A minimum-weight cut of the dual always yields a simple primal
// cycle; the even-degree check is the structural part tests rely on.
func checkCycle(g *planar.Graph, edges []int, weight int64) error {
	if len(edges) == 0 {
		return errors.New("empty cycle")
	}
	deg := map[int]int{}
	var total int64
	for _, e := range edges {
		ed := g.Edge(e)
		deg[ed.U]++
		deg[ed.V]++
		total += ed.Weight
	}
	if total != weight {
		return errors.New("cycle weight mismatch")
	}
	for v, d := range deg {
		if d%2 != 0 {
			return fmt.Errorf("vertex %d has odd cycle degree", v)
		}
	}
	return nil
}

func edgeTriples(g *planar.Graph) ([]int, []int, []int64) {
	us := make([]int, g.M())
	vs := make([]int, g.M())
	ws := make([]int64, g.M())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		us[e], vs[e], ws[e] = ed.U, ed.V, ed.Weight
	}
	return us, vs, ws
}

func TestGirthGrid(t *testing.T) {
	// Unit-weight grid: minimum cycle is a unit square of weight 4.
	g := planar.Grid(4, 5)
	res, err := Girth(prep(g), ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 4 {
		t.Fatalf("girth=%d want 4", res.Weight)
	}
	if err := checkCycle(g, res.CycleEdges, res.Weight); err != nil {
		t.Fatal(err)
	}
}

func TestGirthTree(t *testing.T) {
	g := planar.Grid(1, 6)
	res, err := Girth(prep(g), ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight < spath.Inf {
		t.Fatalf("tree girth should be Inf, got %d", res.Weight)
	}
}

func TestGirthMatchesBruteForce(t *testing.T) {
	rng := planar.NewRand(41)
	for trial := 0; trial < 12; trial++ {
		var g *planar.Graph
		switch trial % 3 {
		case 0:
			g = planar.Grid(2+rng.IntN(4), 2+rng.IntN(5))
		case 1:
			g = planar.StackedTriangulation(8+rng.IntN(25), rng)
		default:
			g = planar.RemoveRandomEdges(planar.StackedTriangulation(20, rng), rng, 10)
		}
		g = planar.WithRandomWeights(g, rng, 1, 30, 1, 1)
		res, err := Girth(prep(g), ledger.New())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		us, vs, ws := edgeTriples(g)
		want := spath.UndirectedGirth(g.N(), us, vs, ws)
		if res.Weight != want {
			t.Fatalf("trial %d: girth=%d want %d", trial, res.Weight, want)
		}
		if want < spath.Inf {
			if err := checkCycle(g, res.CycleEdges, res.Weight); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestGirthRejectsNonPositiveWeights(t *testing.T) {
	g := planar.Grid(3, 3).WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		old.Weight = 0
		return old
	})
	if _, err := Girth(prep(g), ledger.New()); err == nil {
		t.Fatal("expected error for zero weights")
	}
}

func TestGlobalMinCutNotStronglyConnected(t *testing.T) {
	// All grid edges point right/down: no cycles at all, cut value 0.
	g := planar.Grid(3, 3)
	res, err := GlobalMinCut(prep(g), Options{LeafLimit: 8}, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("value=%d want 0", res.Value)
	}
	us, vs, ws := edgeTriples(g)
	if w := spath.CutWeightDirected(us, vs, ws, res.Side); w != 0 {
		t.Fatalf("side weight=%d want 0", w)
	}
}

func TestGlobalMinCutMatchesBaseline(t *testing.T) {
	rng := planar.NewRand(55)
	done := 0
	for trial := 0; trial < 40 && done < 10; trial++ {
		var g *planar.Graph
		if trial%2 == 0 {
			g = planar.Grid(2+rng.IntN(3), 2+rng.IntN(4))
		} else {
			g = planar.StackedTriangulation(6+rng.IntN(12), rng)
		}
		g = planar.WithRandomWeights(g, rng, 1, 20, 1, 1)
		g = planar.WithRandomDirections(g, rng)
		res, err := GlobalMinCut(prep(g), Options{LeafLimit: 10}, ledger.New())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		us, vs, ws := edgeTriples(g)
		want := spath.DirectedGlobalMinCut(g.N(), us, vs, ws)
		if res.Value != want {
			t.Fatalf("trial %d: value=%d want %d (n=%d m=%d)", trial, res.Value, want, g.N(), g.M())
		}
		if got := spath.CutWeightDirected(us, vs, ws, res.Side); got != res.Value {
			t.Fatalf("trial %d: side weight %d != value %d", trial, got, res.Value)
		}
		if res.Value > 0 {
			done++
		}
	}
	if done < 3 {
		t.Fatalf("too few strongly-connected instances: %d", done)
	}
}

func TestMinSTCutMatchesFlow(t *testing.T) {
	rng := planar.NewRand(61)
	for trial := 0; trial < 6; trial++ {
		g := planar.Grid(2+rng.IntN(3), 3+rng.IntN(3))
		g = planar.WithRandomWeights(g, rng, 1, 5, 1, 12)
		g = planar.WithRandomDirections(g, rng)
		s, tt := 0, g.N()-1
		res, err := MinSTCut(prep(g), s, tt, Options{LeafLimit: 10}, ledger.New())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := DinicValue(g, s, tt)
		if res.Value != want {
			t.Fatalf("trial %d: cut=%d flow=%d", trial, res.Value, want)
		}
		if !res.Side[s] || res.Side[tt] {
			t.Fatalf("trial %d: bisection does not separate s,t", trial)
		}
		// Cut edges must be exactly the edges leaving the side with total
		// capacity = value.
		var sum int64
		for _, e := range res.CutEdges {
			ed := g.Edge(e)
			if !res.Side[ed.U] || res.Side[ed.V] {
				t.Fatalf("trial %d: edge %d not leaving the side", trial, e)
			}
			sum += ed.Cap
		}
		if sum != res.Value {
			t.Fatalf("trial %d: cut edges sum %d != %d", trial, sum, res.Value)
		}
	}
}

func TestSTPlanarExactMatchesDinic(t *testing.T) {
	rng := planar.NewRand(71)
	for trial := 0; trial < 8; trial++ {
		g := planar.Grid(2+rng.IntN(4), 2+rng.IntN(5))
		g = planar.WithRandomWeights(g, rng, 1, 1, 1, 40)
		// s, t on the outer face: two corners.
		s, tt := 0, g.N()-1
		res, err := STPlanarMaxFlow(prep(g), s, tt, 0, ledger.New())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := UndirectedDinicValue(g, s, tt)
		if res.Value != want {
			t.Fatalf("trial %d: value=%d want %d", trial, res.Value, want)
		}
		if err := CheckUndirectedFlow(g, s, tt, res.Flow, res.Value); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSTPlanarApproximate(t *testing.T) {
	rng := planar.NewRand(73)
	for trial := 0; trial < 6; trial++ {
		g := planar.Grid(3+rng.IntN(3), 3+rng.IntN(3))
		g = planar.WithRandomWeights(g, rng, 1, 1, 100, 1000)
		s, tt := 0, g.N()-1
		eps := 0.1
		res, err := STPlanarMaxFlow(prep(g), s, tt, eps, ledger.New())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := UndirectedDinicValue(g, s, tt)
		if res.Value > opt {
			t.Fatalf("trial %d: approximate value %d exceeds optimum %d", trial, res.Value, opt)
		}
		if float64(res.Value) < (1-eps)*float64(opt)-float64(g.Faces().NumFaces()) {
			t.Fatalf("trial %d: value %d too far below (1-eps)*%d", trial, res.Value, opt)
		}
		// The assignment must be feasible for the *original* capacities.
		if err := CheckUndirectedFlow(g, s, tt, res.Flow, res.Value); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSTPlanarRequiresCommonFace(t *testing.T) {
	g := planar.Grid(5, 5)
	// Center vertex and a corner share no face.
	if _, err := STPlanarMaxFlow(prep(g), 12, 0, 0, ledger.New()); err == nil {
		t.Fatal("expected error for non-st-planar pair")
	}
}

func TestSTPlanarMinCut(t *testing.T) {
	rng := planar.NewRand(79)
	for trial := 0; trial < 6; trial++ {
		g := planar.Grid(2+rng.IntN(4), 3+rng.IntN(3))
		g = planar.WithRandomWeights(g, rng, 1, 1, 1, 25)
		s, tt := 0, g.N()-1
		res, err := STPlanarMinCut(prep(g), s, tt, 0, ledger.New())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := UndirectedDinicValue(g, s, tt)
		if res.Value != want {
			t.Fatalf("trial %d: cut=%d want %d", trial, res.Value, want)
		}
		if !res.Side[s] || res.Side[tt] {
			t.Fatalf("trial %d: side does not separate", trial)
		}
	}
}

// prep wraps a graph in a fresh one-query artifact; tests exercising the
// cache share a Prepared explicitly instead.
func prep(g *planar.Graph) *artifact.Prepared { return artifact.New(g) }

// TestArtifactAmortizesAcrossQueries pins the serving contract: the first
// query on a Prepared pays the BDD/labeling build, later queries on the same
// Prepared report zero build rounds, and results are identical to one-shot.
func TestArtifactAmortizesAcrossQueries(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(6, 6), planar.NewRand(5), 1, 9, 1, 9)
	p := artifact.New(g)

	led1 := ledger.New()
	r1, err := MaxFlow(p, 0, g.N()-1, Options{}, led1)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := led1.BuildSplit()
	if b1 <= 0 {
		t.Fatalf("first query build rounds = %d, want > 0", b1)
	}

	led2 := ledger.New()
	r2, err := MaxFlow(p, 0, g.N()-1, Options{}, led2)
	if err != nil {
		t.Fatal(err)
	}
	b2, q2 := led2.BuildSplit()
	if b2 != 0 {
		t.Fatalf("second query build rounds = %d, want 0", b2)
	}
	if q2 <= 0 {
		t.Fatal("second query charged no query rounds")
	}
	if r1.Value != r2.Value {
		t.Fatalf("values diverge: %d vs %d", r1.Value, r2.Value)
	}

	// A different entry point sharing the same tree pays only its own
	// labeling, never a second BDD construction.
	led3 := ledger.New()
	if _, err := DirectedGirth(p, Options{}, led3); err != nil {
		t.Fatal(err)
	}
	for _, e := range led3.Entries() {
		if e.Phase == "bdd/construct-level" {
			t.Fatal("DirectedGirth rebuilt the BDD despite the shared artifact")
		}
	}

	// One-shot (fresh artifact) equals the prepared result bit for bit.
	ledCold := ledger.New()
	cold, err := MaxFlow(artifact.New(g), 0, g.N()-1, Options{}, ledCold)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Value != r1.Value || len(cold.Flow) != len(r1.Flow) {
		t.Fatal("one-shot and prepared results diverge")
	}
	for e := range cold.Flow {
		if cold.Flow[e] != r1.Flow[e] {
			t.Fatalf("flow[%d] diverges: %d vs %d", e, cold.Flow[e], r1.Flow[e])
		}
	}
	if ledCold.Total() != led1.Total() {
		t.Fatalf("cold total %d != first-prepared total %d", ledCold.Total(), led1.Total())
	}
}
