package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// residualCut is the minimum st-cut a maximum flow determines: the vertices
// reachable from s over darts with residual capacity, and the edges leaving
// them. MinSTCut reads the same set off a primal SSSP.
func residualCut(g *planar.Graph, s int, flow []int64) ([]bool, []int) {
	side := make([]bool, g.N())
	side[s] = true
	for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
		for _, d := range g.Rotation(queue[0]) {
			e := planar.EdgeOf(d)
			residual := flow[e] > 0
			if planar.IsForward(d) {
				residual = g.Edge(e).Cap > flow[e]
			}
			if w := g.Head(d); residual && !side[w] {
				side[w] = true
				queue = append(queue, w)
			}
		}
	}
	var edges []int
	for e := 0; e < g.M(); e++ {
		if ed := g.Edge(e); side[ed.U] && !side[ed.V] {
			edges = append(edges, e)
		}
	}
	return side, edges
}

// residualLengths are the primal lengths MinSTCut's reachability runs on,
// built afresh from flow: 0 on a dart with residual capacity, Inf on a
// saturated one.
func residualLengths(g *planar.Graph, flow []int64) []int64 {
	residual := make([]int64, g.NumDarts())
	for e, f := range flow {
		residual[planar.ForwardDart(e)], residual[planar.BackwardDart(e)] = spath.Inf, spath.Inf
		if g.Edge(e).Cap-f > 0 {
			residual[planar.ForwardDart(e)] = 0
		}
		if f > 0 {
			residual[planar.BackwardDart(e)] = 0
		}
	}
	return residual
}

// capBound is U: the lesser of the capacity out of s and the capacity into t.
func capBound(g *planar.Graph, s, t int) int64 {
	var out, in int64
	for _, ed := range g.Edges() {
		if ed.U == s {
			out += ed.Cap
		}
		if ed.V == t {
			in += ed.Cap
		}
	}
	return min(out, in)
}

// TestLambdaSearchMatchesFullSearch: over random (s,t) on directed and
// undirected triangulations, grids and snakes, MaxFlow's search returns the
// full search's answer — value and flow edge for edge, and MinSTCut the cut
// that flow determines, side and edges — while running no more probes and
// charging no more rounds, in total and at every labeling level. Every λ
// the full search labels also runs through a label.Search, held to the
// labeling's verdict and entries, and its SSSP at λ* to the labeling's
// (maxFlowFullLabeling). MinSTCut charges MaxFlow's entries, then what
// SSSPFrom over residual lengths built afresh from the flow charges — at
// λ* = 0 too, where it replays the λ = 0 state's pass instead. It covers
// the endpoints' bound at both ends: a source with no out-edge (U = 0, no
// probe) and λ* = U, and a negative capacity, which both searches reject
// with the same error.
func TestLambdaSearchMatchesFullSearch(t *testing.T) {
	rng := planar.NewRand(61)
	weighted := func(g *planar.Graph, directed bool) *planar.Graph {
		g = planar.WithRandomWeights(g, rng, 1, 9, 1, 10)
		if directed {
			g = planar.WithRandomDirections(g, rng)
		}
		return g
	}
	negative := planar.Grid(3, 4).WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		if e == 7 {
			old.Cap = -1
		}
		return old
	})
	// A one-way grid's first two pairs run corner to corner: every edge points
	// away from the top-left corner and into the bottom-right one.
	instances := []struct {
		name    string
		g       *planar.Graph
		leaf    int
		pairs   int
		corners bool
	}{
		{"grid1x2", weighted(planar.Grid(1, 2), false), 0, 2, true},
		{"triangulation24", weighted(planar.StackedTriangulation(24, rng), false), 8, 70, false},
		{"triangulation24-directed", weighted(planar.StackedTriangulation(24, rng), true), 8, 70, false},
		{"triangulation48", weighted(planar.StackedTriangulation(48, rng), false), 0, 70, false},
		{"triangulation48-directed", weighted(planar.StackedTriangulation(48, rng), true), 12, 70, false},
		{"grid5x5", weighted(planar.Grid(5, 5), false), 8, 70, true},
		{"grid6x7-directed", weighted(planar.Grid(6, 7), true), 10, 70, false},
		{"grid4x6-directed", weighted(planar.Grid(4, 6), true), 0, 60, false},
		{"snake5x5", weighted(planar.BoustrophedonGrid(5, 5), false), 8, 70, false},
		{"snake4x7", planar.WithRandomWeights(planar.BoustrophedonGrid(4, 7), rng, 1, 9, 1, 3), 0, 60, false},
		{"negative-cap", negative, 6, 10, false},
	}
	var pairs, zeroBound, atBound, zeroCuts, rejected int
	for _, in := range instances {
		g, opt := in.g, Options{LeafLimit: in.leaf}
		p := prep(g)
		tree, err := p.Tree(opt.LeafLimit, ledger.New())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < in.pairs; i++ {
			s := rng.IntN(g.N())
			tt := (s + 1 + rng.IntN(g.N()-1)) % g.N()
			if in.corners && i < 2 {
				s, tt = 0, g.N()-1
				if i == 0 {
					s, tt = tt, s
				}
			}
			name := fmt.Sprintf("%s s=%d t=%d", in.name, s, tt)
			pairs++

			gotLed, wantLed := ledger.New(), ledger.New()
			want, wantErr := maxFlowFullLabeling(p, s, tt, opt, wantLed, fullSearch)
			got, err := MaxFlow(p, s, tt, opt, gotLed)
			if wantErr != nil || err != nil {
				if g != negative || wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: MaxFlow err %v, full search err %v", name, err, wantErr)
				}
				rejected++
				continue
			}
			if got.Value != want.Value || !reflect.DeepEqual(got.Flow, want.Flow) {
				t.Fatalf("%s: MaxFlow %d %v, full search %d %v", name, got.Value, got.Flow, want.Value, want.Flow)
			}
			if got.Iterations > want.Iterations {
				t.Fatalf("%s: %d probes, full search %d", name, got.Iterations, want.Iterations)
			}
			if gotLed.Total() > wantLed.Total() {
				t.Fatalf("%s: %d rounds, full search %d", name, gotLed.Total(), wantLed.Total())
			}
			wantPhases := wantLed.ByPhase()
			for phase, r := range gotLed.ByPhase() {
				if strings.HasPrefix(phase, "label/level-") && r > wantPhases[phase] {
					t.Fatalf("%s: %s charged %d, full search %d", name, phase, r, wantPhases[phase])
				}
			}
			switch u := capBound(g, s, tt); {
			case u == 0:
				zeroBound++
				if got.Iterations != 0 {
					t.Fatalf("%s: U = 0 and still %d probes", name, got.Iterations)
				}
			case got.Value == u:
				atBound++
			}

			cutLed := ledger.New()
			cut, err := MinSTCut(p, s, tt, opt, cutLed)
			if err != nil {
				t.Fatalf("%s: minstcut: %v", name, err)
			}
			side, edges := residualCut(g, s, want.Flow)
			if !reflect.DeepEqual(cut.Side, side) || !reflect.DeepEqual(cut.CutEdges, edges) {
				t.Fatalf("%s: MinSTCut side %v edges %v, the full search's flow cuts %v %v", name, cut.Side, cut.CutEdges, side, edges)
			}
			refLed := ledger.New()
			refLed.Merge(gotLed)
			reach, err := label.SSSPFrom(context.Background(), label.Primal, tree, residualLengths(g, got.Flow), s, refLed, refLed)
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range reach.Dist {
				if side[v] != (d == 0) {
					t.Fatalf("%s: SSSPFrom over the residual lengths puts vertex %d at %d", name, v, d)
				}
			}
			if !reflect.DeepEqual(cutLed.Entries(), refLed.Entries()) {
				t.Fatalf("%s: MinSTCut charged\n%v\nMaxFlow and SSSPFrom over the residual lengths\n%v", name, cutLed.Entries(), refLed.Entries())
			}
			if got.Value == 0 {
				zeroCuts++
			}
		}
	}
	t.Logf("%d pairs: %d with U = 0, %d with λ* = U > 0, %d min cuts at λ* = 0, %d rejected", pairs, zeroBound, atBound, zeroCuts, rejected)
	if pairs < 600 || zeroBound == 0 || atBound == 0 || zeroCuts <= zeroBound || rejected == 0 {
		t.Fatalf("sweep too thin: %d pairs, %d with U = 0, %d with λ* = U > 0, %d min cuts at λ* = 0, %d rejected",
			pairs, zeroBound, atBound, zeroCuts, rejected)
	}
}
