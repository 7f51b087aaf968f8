package main

import (
	"context"
	"fmt"

	"planarflow"
	"planarflow/internal/spath"
)

// reply is what one operation returned, reduced to what the checker
// compares: one value per answer (a dualsssp vector is folded to its
// hash), and for the library workload the full answer so flows and cuts
// can be verified edge by edge.
type reply struct {
	val [buildAnswers]int64
	hit bool
	ans *planarflow.Answer
}

// hashDist folds a distance vector to one integer (FNV-1a over the
// values) so the hot loop compares integers, not slices.
func hashDist(d []int64) int64 {
	h := uint64(14695981039346656037)
	for _, x := range d {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return int64(h)
}

// expect computes every op's expected values from centralized baselines
// built over Graph.EdgeAt — Dijkstra for dist, Dinic for the flow and cut
// families, spath's girth and global-min-cut comparators — and, for the
// dual-graph families the public Graph cannot express, from an
// independently prepared library instance on the simulated route. It runs
// before set-up and outside setup_s.
func (p *plan) expect(ctx context.Context) error {
	p.want = make([][]int64, len(p.Ops))
	refs := make([]*reference, len(p.graphs))
	for i := range p.Ops {
		o := &p.Ops[i]
		if refs[o.Graph] == nil {
			refs[o.Graph] = &reference{g: p.graphs[o.Graph], primal: map[int][]int64{}, dual: map[int][]int64{}}
		}
		r := refs[o.Graph]
		var w []int64
		var err error
		switch o.Kind {
		case planarflow.QDist:
			w = []int64{r.dist(o.U)[o.V]}
		case planarflow.QDualDist:
			var row []int64
			if row, err = r.dualRow(ctx, o.F1); err == nil {
				w = []int64{row[o.F2]}
			}
		case planarflow.QDualSSSP:
			var row []int64
			if row, err = r.dualRow(ctx, o.F1); err == nil {
				w = []int64{hashDist(row)}
			}
		case planarflow.QMaxFlow, planarflow.QMinSTCut:
			w = []int64{r.maxFlow(o.U, o.V, false)}
		case planarflow.QSTFlow:
			w = []int64{r.maxFlow(o.U, o.V, true)}
		case opBuild:
			var row []int64
			if row, err = r.dualRow(ctx, o.F1); err == nil {
				girth, cut := r.girthAndCut()
				w = []int64{r.dist(o.U)[o.V], row[o.F2], hashDist(row), girth, cut}
			}
		default:
			err = fmt.Errorf("no baseline for op kind %q", o.Kind)
		}
		if err != nil {
			return fmt.Errorf("expect %s op %d: %w", p.Workload, i, err)
		}
		p.want[i] = w
	}
	return nil
}

// reference holds one graph's baselines, computed on demand and kept per
// source so a stream that revisits a source pays once.
type reference struct {
	g      *planarflow.Graph
	und    *spath.Digraph
	primal map[int][]int64
	sim    *planarflow.PreparedGraph
	dual   map[int][]int64
}

func (r *reference) dist(src int) []int64 {
	if d, ok := r.primal[src]; ok {
		return d
	}
	if r.und == nil {
		r.und = spath.NewDigraph(r.g.N())
		for e := 0; e < r.g.M(); e++ {
			ed := r.g.EdgeAt(e)
			r.und.AddArc(ed.U, ed.V, ed.Weight, e)
			r.und.AddArc(ed.V, ed.U, ed.Weight, e)
		}
	}
	d := spath.Dijkstra(r.und, src).Dist
	r.primal[src] = d
	return d
}

func (r *reference) dualRow(ctx context.Context, face int) ([]int64, error) {
	if d, ok := r.dual[face]; ok {
		return d, nil
	}
	if r.sim == nil {
		pg, err := planarflow.Prepare(r.g)
		if err != nil {
			return nil, err
		}
		r.sim = pg
	}
	a, err := r.sim.Do(ctx, planarflow.DualSSSPQuery(face).WithSimulated())
	if err != nil {
		return nil, err
	}
	r.dual[face] = a.Dist
	return a.Dist, nil
}

func (r *reference) maxFlow(s, t int, undirected bool) int64 {
	fn := spath.NewFlowNetwork(r.g.N())
	for e := 0; e < r.g.M(); e++ {
		ed := r.g.EdgeAt(e)
		fn.AddEdge(ed.U, ed.V, ed.Cap, e)
		if undirected {
			fn.AddEdge(ed.V, ed.U, ed.Cap, e)
		}
	}
	return fn.MaxFlow(s, t)
}

func (r *reference) girthAndCut() (girth, cut int64) {
	m := r.g.M()
	us, vs, ws := make([]int, m), make([]int, m), make([]int64, m)
	for e := 0; e < m; e++ {
		ed := r.g.EdgeAt(e)
		us[e], vs[e], ws[e] = ed.U, ed.V, ed.Weight
	}
	return spath.UndirectedGirth(r.g.N(), us, vs, ws), spath.DirectedGlobalMinCut(r.g.N(), us, vs, ws)
}

// check compares one reply with the op's expected values. Any difference
// is a failed operation: a wrong answer counts exactly like an error.
func (p *plan) check(i int, r *reply) error {
	o, want, g := &p.Ops[i], p.want[i], p.graphs[p.Ops[i].Graph]
	if o.Kind == planarflow.QSTFlow {
		// (1-eps)-approximate: never above the optimum, and below it by at
		// most eps of it plus the rounding of the scaled capacities, which
		// the library's own tests allow one unit per face.
		if got := r.val[0]; got > want[0] || float64(got) < (1-o.Eps)*float64(want[0])-float64(g.NumFaces()) {
			return fmt.Errorf("op %d %s(%d,%d): value %d not a (1-%g)-approximation of %d", i, o.Kind, o.U, o.V, got, o.Eps, want[0])
		}
	} else {
		for k, w := range want {
			if r.val[k] != w {
				return fmt.Errorf("op %d %s answer %d: got %d, want %d", i, o.Kind, k, r.val[k], w)
			}
		}
	}
	if r.ans == nil {
		return nil
	}
	switch o.Kind {
	case planarflow.QMaxFlow, planarflow.QSTFlow:
		if len(r.ans.Flow) != g.M() {
			return fmt.Errorf("op %d %s: flow has %d entries, graph has %d edges", i, o.Kind, len(r.ans.Flow), g.M())
		}
		verify := planarflow.CheckFlow
		if o.Kind == planarflow.QSTFlow {
			verify = planarflow.CheckUndirectedFlow
		}
		if err := verify(g, o.U, o.V, r.ans.Flow, r.ans.Value); err != nil {
			return fmt.Errorf("op %d %s(%d,%d): %w", i, o.Kind, o.U, o.V, err)
		}
	case planarflow.QMinSTCut:
		var crossing int64
		for _, e := range r.ans.Edges {
			if e < 0 || e >= g.M() {
				return fmt.Errorf("op %d minstcut: cut edge %d out of range", i, e)
			}
			crossing += g.EdgeAt(e).Cap
		}
		if crossing != r.ans.Value {
			return fmt.Errorf("op %d minstcut(%d,%d): cut edges carry %d, value says %d", i, o.U, o.V, crossing, r.ans.Value)
		}
	}
	return nil
}
