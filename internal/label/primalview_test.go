// The primal view's black-box suite: the labeling held, through its
// exported surface alone, to an explicit all-pairs baseline on G.

package label_test

import (
	"math/rand/v2"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

func explicitDist(g *planar.Graph, lengths []int64) ([][]int64, bool) {
	dg := spath.NewDigraph(g.N())
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		if lengths[d] < spath.Inf {
			dg.AddArc(g.Tail(d), g.Head(d), lengths[d], int(d))
		}
	}
	return spath.APSPBellmanFord(dg)
}

func check(t *testing.T, g *planar.Graph, lengths []int64, leaf int) {
	t.Helper()
	led := ledger.New()
	tree := bdd.Build(g, leaf, led)
	la := label.Compute(label.Primal, tree, lengths, led)
	want, ok := explicitDist(g, lengths)
	if !ok {
		if !la.NegCycle {
			t.Fatal("negative cycle missed")
		}
		return
	}
	if la.NegCycle {
		t.Fatal("spurious negative cycle")
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if got := la.Dist(u, v); got != want[u][v] {
				t.Fatalf("dist(%d,%d)=%d want %d", u, v, got, want[u][v])
			}
		}
	}
	if led.Total() == 0 {
		t.Fatal("no rounds charged")
	}
}

func symLengths(g *planar.Graph, rng *rand.Rand, lo, hi int64) []int64 {
	lens := make([]int64, g.NumDarts())
	for e := 0; e < g.M(); e++ {
		w := lo + rng.Int64N(hi-lo+1)
		lens[planar.ForwardDart(e)] = w
		lens[planar.BackwardDart(e)] = w
	}
	return lens
}

func TestMatchesBaselineGrids(t *testing.T) {
	rng := planar.NewRand(2)
	for _, dims := range [][2]int{{3, 3}, {4, 6}, {6, 6}, {2, 12}} {
		g := planar.Grid(dims[0], dims[1])
		check(t, g, symLengths(g, rng, 1, 40), 10)
	}
}

func TestMatchesBaselineDirected(t *testing.T) {
	// Asymmetric dart lengths (directed graphs), including deactivated
	// darts — the residual-graph pattern MinSTCut uses.
	rng := planar.NewRand(3)
	for trial := 0; trial < 8; trial++ {
		g := planar.Grid(2+rng.IntN(4), 3+rng.IntN(4))
		lens := make([]int64, g.NumDarts())
		for d := range lens {
			switch rng.IntN(3) {
			case 0:
				lens[d] = spath.Inf
			default:
				lens[d] = rng.Int64N(20)
			}
		}
		check(t, g, lens, 8)
	}
}

func TestMatchesBaselineTriangulations(t *testing.T) {
	rng := planar.NewRand(5)
	for _, n := range []int{10, 30, 60} {
		g := planar.StackedTriangulation(n, rng)
		check(t, g, symLengths(g, rng, 1, 15), 12)
	}
}

func TestNegativeLengthsViaPotentials(t *testing.T) {
	rng := planar.NewRand(7)
	g := planar.Grid(4, 5)
	phi := make([]int64, g.N())
	for v := range phi {
		phi[v] = rng.Int64N(50)
	}
	lens := make([]int64, g.NumDarts())
	neg := false
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		lens[d] = 1 + rng.Int64N(10) + phi[g.Tail(d)] - phi[g.Head(d)]
		neg = neg || lens[d] < 0
	}
	if !neg {
		t.Fatal("no negative lengths generated")
	}
	check(t, g, lens, 8)
}

func TestNegativeCycleDetectedPrimal(t *testing.T) {
	g := planar.Grid(3, 3)
	lens := make([]int64, g.NumDarts())
	for d := range lens {
		lens[d] = -1
	}
	led := ledger.New()
	tree := bdd.Build(g, 6, led)
	la := label.Compute(label.Primal, tree, lens, led)
	if !la.NegCycle {
		t.Fatal("negative cycle missed")
	}
}

func TestLeafLimitInvariancePrimal(t *testing.T) {
	rng := planar.NewRand(11)
	g := planar.Grid(5, 5)
	lens := symLengths(g, rng, 1, 25)
	for _, leaf := range []int{4, 8, 20, 1000} {
		check(t, g, lens, leaf)
	}
}

func TestSSSPAndLabelWords(t *testing.T) {
	rng := planar.NewRand(13)
	g := planar.Grid(5, 6)
	lens := symLengths(g, rng, 1, 9)
	led := ledger.New()
	tree := bdd.Build(g, 10, led)
	la := label.Compute(label.Primal, tree, lens, led)
	want, _ := explicitDist(g, lens)
	dist := la.SSSP(0, led).Dist
	for v := range dist {
		if dist[v] != want[0][v] {
			t.Fatalf("sssp dist[%d]=%d want %d", v, dist[v], want[0][v])
		}
	}
	for v := 0; v < g.N(); v++ {
		if w := la.Label(tree.Root, v).Words(); w <= 0 || w > 40*g.Diameter() {
			t.Fatalf("label words %d out of range for D=%d", w, g.Diameter())
		}
	}
}
