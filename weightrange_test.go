package planarflow

import (
	"context"
	"errors"
	"math/bits"
	"testing"

	"planarflow/internal/core"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// unitBaselines answers every family on g centrally: Dijkstra on the
// primal, directed and dual digraphs, Dinic, Stoer–Wagner and the
// minimum-cycle baselines of internal/spath. Values are listed in
// weightRangeQueries' order; dualsssp contributes one value per face.
func unitBaselines(g *planar.Graph, s, t, as, at int) []int64 {
	n, fd := g.N(), g.Faces()
	prim, dir, dual := spath.NewDigraph(n), spath.NewDigraph(n), spath.NewDigraph(fd.NumFaces())
	us, vs, ws := make([]int, g.M()), make([]int, g.M()), make([]int64, g.M())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		us[e], vs[e], ws[e] = ed.U, ed.V, ed.Weight
		prim.AddArc(ed.U, ed.V, ed.Weight, e)
		prim.AddArc(ed.V, ed.U, ed.Weight, e)
		dir.AddArc(ed.U, ed.V, ed.Weight, e)
		for _, d := range []planar.Dart{planar.ForwardDart(e), planar.BackwardDart(e)} {
			dual.AddArc(fd.FaceOf(d), fd.FaceOf(planar.Rev(d)), ed.Weight, e)
		}
	}
	dualDist := spath.Dijkstra(dual, 0).Dist
	out := []int64{
		spath.Dijkstra(prim, s).Dist[t],
		spath.Dijkstra(dir, s).Dist[t],
		dualDist[fd.NumFaces()-1],
		core.DinicValue(g, s, t),
		core.DinicValue(g, s, t),
		core.UndirectedDinicValue(g, as, at),
		core.UndirectedDinicValue(g, as, at),
		spath.UndirectedGirth(n, us, vs, ws),
		spath.DirectedMinCycle(dir),
		spath.DirectedGlobalMinCut(n, us, vs, ws),
	}
	return append(out, dualDist...)
}

// weightRangeQueries is one query per family. s, t are far apart for the
// distance and flow families; as, at are an edge's ends, so they share a
// face for stflow and stcut.
func weightRangeQueries(f, s, t, as, at int) []Query {
	return []Query{
		DistQuery(s, t), DirectedDistQuery(s, t), DualDistQuery(0, f-1),
		MaxFlowQuery(s, t), MinSTCutQuery(s, t),
		STFlowQuery(as, at, 0), STCutQuery(as, at, 0),
		GirthQuery(), DirectedGirthQuery(), GlobalMinCutQuery(),
		DualSSSPQuery(0),
	}
}

// TestWeightRangeContract sets every weight and capacity to 2^k for
// k = 0..62 and asks all 11 families. Every answer must equal the
// centralized baseline or be ErrWeightRange. Scaling all weights and
// capacities by c scales every answer by c (Inf stays Inf), so the
// baseline at 2^k is the unit graph's baseline times 2^k, computed
// without the int64 sums the scaled baselines would overflow; a product
// at or past Inf is an answer no int64 result can carry, so only
// ErrWeightRange is right there. Once a k is refused, every larger k
// must be too, and the unit graph must be accepted.
func TestWeightRangeContract(t *testing.T) {
	ctx := context.Background()
	for name, base := range map[string]*Graph{
		"grid4x4":         GridGraph(4, 4),
		"triangulation40": TriangulationGraph(40, 1),
	} {
		t.Run(name, func(t *testing.T) {
			n, f := base.N(), base.NumFaces()
			s, tt := 0, n-1
			as, at := base.EdgeAt(0).U, base.EdgeAt(0).V
			unit := unitBaselines(base.WithAttrs(func(_ int, e Edge) Edge {
				e.Weight, e.Cap = 1, 1
				return e
			}).g, s, tt, as, at)
			refused := -1
			for k := 0; k <= 62; k++ {
				scale := int64(1) << k
				gk := base.WithAttrs(func(_ int, e Edge) Edge {
					e.Weight, e.Cap = scale, scale
					return e
				})
				var got []int64
				p, err := Prepare(gk)
				if err == nil {
					for _, q := range weightRangeQueries(f, s, tt, as, at) {
						var a *Answer
						if a, err = p.Do(ctx, q); err != nil {
							break
						}
						if q.Kind == QDualSSSP {
							got = append(got, a.Dist...)
						} else {
							got = append(got, a.Value)
						}
					}
				}
				if err != nil {
					if !errors.Is(err, ErrWeightRange) {
						t.Fatalf("k=%d: %v, want an answer or ErrWeightRange", k, err)
					}
					if refused < 0 {
						refused = k
					}
					continue
				}
				if refused >= 0 {
					t.Fatalf("k=%d answered after k=%d was refused", k, refused)
				}
				for i, u := range unit {
					want := u
					if u != spath.Inf {
						hi, lo := bits.Mul64(uint64(u), uint64(scale))
						if hi != 0 || lo >= uint64(spath.Inf) {
							t.Fatalf("k=%d: value %d is %d·2^k, past Inf, and was answered %d without ErrWeightRange", k, i, u, got[i])
						}
						want = int64(lo)
					}
					if got[i] != want {
						t.Fatalf("k=%d: value %d = %d, baseline %d", k, i, got[i], want)
					}
				}
			}
			if refused == 0 {
				t.Fatal("the unit-weight graph was refused")
			}
		})
	}
}
