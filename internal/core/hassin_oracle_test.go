package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// insertRoute is Hassin's reduction the way it was first written: embed the
// virtual edge (t,s) with planar.InsertEdgeInFace — a copy of the graph with
// its faces and dual recomputed — and build the augmented dual arc by arc.
// Kept as the oracle the in-place split of the common face is held to. It
// returns the shortest-path tree from f1 and what the answers read of it.
func insertRoute(g *planar.Graph, s, t int, eps float64) (psi *spath.SSSPResult, du2 *planar.Dual, f1, f2 int, err error) {
	common := g.CommonFaces(s, t)
	bigW := int64(g.N()+1) * 1000
	g2, eNew, err := planar.InsertEdgeInFace(g, t, s, common[0], bigW, bigW)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	fd2 := g2.Faces()
	f1 = fd2.FaceOf(planar.ForwardDart(eNew))
	f2 = fd2.FaceOf(planar.BackwardDart(eNew))
	dg := spath.NewDigraph(fd2.NumFaces())
	du2 = g2.Dual()
	for d := planar.Dart(0); int(d) < g2.NumDarts(); d++ {
		e := planar.EdgeOf(d)
		if e == eNew {
			continue
		}
		c := g2.Edge(e).Cap
		if eps != 0 {
			c = int64(math.Floor((1 - eps) * float64(c)))
		}
		dg.AddArc(du2.Tail(d), du2.Head(d), c, int(d))
	}
	psi = spath.Dijkstra(dg, f1)
	if psi.Dist[f2] >= spath.Inf {
		return nil, nil, 0, 0, errors.New("dual target unreachable")
	}
	return psi, du2, f1, f2, nil
}

func insertRouteFlow(g *planar.Graph, s, t int, eps float64) (int64, []int64, error) {
	psi, du2, _, f2, err := insertRoute(g, s, t, eps)
	if err != nil {
		return 0, nil, err
	}
	flow := make([]int64, g.M())
	for e := range flow {
		fw := planar.ForwardDart(e)
		flow[e] = psi.Dist[du2.Head(fw)] - psi.Dist[du2.Tail(fw)]
	}
	return psi.Dist[f2], flow, nil
}

func insertRouteCut(g *planar.Graph, s, t int, eps float64) (*CutResult, error) {
	psi, du2, f1, f2, err := insertRoute(g, s, t, eps)
	if err != nil {
		return nil, err
	}
	res := &CutResult{}
	cutSet := map[int]bool{}
	for v := f2; v != f1; {
		a := planar.Dart(psi.ParentArcID[v])
		if e := planar.EdgeOf(a); !cutSet[e] {
			cutSet[e] = true
			res.CutEdges = append(res.CutEdges, e)
			res.Value += g.Edge(e).Cap
		}
		v = du2.Tail(a)
	}
	res.Side = make([]bool, g.N())
	res.Side[s] = true
	stack := []int{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range g.Rotation(v) {
			if u := g.Head(d); !cutSet[planar.EdgeOf(d)] && !res.Side[u] {
				res.Side[u] = true
				stack = append(stack, u)
			}
		}
	}
	return res, nil
}

// TestHassinMatchesInsertRoute: on every ordered (s,t) sharing a face of the
// golden's four graphs — cut vertices on the face and pairs sharing several
// faces included — splitting the common face's dart cycle in place gives the
// flow, the cut edges (in order) and the side that embedding the virtual
// edge gives, exactly and at ε = 0.1.
func TestHassinMatchesInsertRoute(t *testing.T) {
	instances := exactGoldenInstances()
	// A grid thinned to two independent cycles: bridges and cut vertices, so
	// a vertex sits at several corners of one face and the corner the split
	// picks matters.
	rng := planar.NewRand(8)
	instances = append(instances, struct {
		name string
		g    *planar.Graph
		s, t int
	}{name: "sparse5x6", g: planar.WithRandomWeights(planar.RemoveRandomEdges(planar.Grid(5, 6), rng, 18), rng, 1, 9, 1, 10)})
	for _, in := range instances {
		g := in.g
		p := prep(g)
		pairs := 0
		for s := 0; s < g.N(); s++ {
			for tt := 0; tt < g.N(); tt++ {
				if s == tt || len(g.CommonFaces(s, tt)) == 0 {
					continue
				}
				pairs++
				for _, eps := range []float64{0, 0.1} {
					wantV, wantFlow, err := insertRouteFlow(g, s, tt, eps)
					if err != nil {
						t.Fatalf("%s (%d,%d): oracle: %v", in.name, s, tt, err)
					}
					flow, err := STPlanarMaxFlow(p, s, tt, eps, ledger.New())
					if err != nil {
						t.Fatalf("%s (%d,%d) eps=%v: %v", in.name, s, tt, eps, err)
					}
					if flow.Value != wantV || !reflect.DeepEqual(flow.Flow, wantFlow) {
						t.Fatalf("%s (%d,%d) eps=%v: flow differs from the insert route (value %d, want %d)", in.name, s, tt, eps, flow.Value, wantV)
					}
					wantCut, err := insertRouteCut(g, s, tt, eps)
					if err != nil {
						t.Fatal(err)
					}
					cut, err := STPlanarMinCut(p, s, tt, eps, ledger.New())
					if err != nil {
						t.Fatalf("%s (%d,%d) eps=%v: stcut: %v", in.name, s, tt, eps, err)
					}
					if !reflect.DeepEqual(cut, wantCut) {
						t.Fatalf("%s (%d,%d) eps=%v: cut %+v, insert route gives %+v", in.name, s, tt, eps, cut, wantCut)
					}
				}
			}
		}
		t.Logf("%s: %d ordered pairs share a face", in.name, pairs)
	}
}
