// Package core implements the paper's headline algorithms on top of the
// substrates: exact maximum st-flow in directed planar graphs via dual SSSP
// (Thm 1.2), minimum st-cut (Thm 6.1), approximate st-planar flow and cut
// (Thm 1.3 / 6.2), weighted girth via dual minimum cut (Thm 1.7), and
// directed global minimum cut via dual minimum cycles (Thm 1.5).
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"planarflow/internal/artifact"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// Options tunes the algorithms; the zero value picks paper-faithful
// defaults.
type Options struct {
	// LeafLimit bounds the BDD leaf bag size in edges; 0 means the paper's
	// Θ(D log n) with D estimated by a double BFS sweep.
	LeafLimit int
}

// FlowResult is a maximum st-flow with its assignment.
type FlowResult struct {
	Value int64
	// Flow[e] is the flow pushed along edge e in its U->V direction
	// (in [0, Cap(e)] for the exact directed algorithm).
	Flow []int64
	// Iterations is the number of feasibility probes the λ search ran.
	Iterations int
}

// MaxFlow computes the exact maximum st-flow of a directed planar graph with
// non-negative integer capacities, following Miller–Naor: binary search on
// the value λ; for each λ, push λ along a fixed s-to-t path of darts and
// test feasibility by a negative-cycle query on the dual with residual
// lengths — a dual SSSP with positive and negative lengths computed through
// the distance labeling of §5 (Thm 1.2, Õ(D²) rounds).
//
// The BDD comes from the shared prepared artifact: the first query on p pays
// its construction (Build-scoped in led), later queries reuse it. So does
// the graph's λ = 0 state (artifact.FlowBase, built by the first query that
// probes or assigns at λ* = 0, charging nothing): the capacity lengths
// every residual length starts from. Each λ the search cannot infer a
// verdict for (lambdaStar) costs one feasibility probe of a label.Search
// over the state and the path: one negative-cycle check over the whole
// dual, charged as the labeling pass the paper's algorithm runs —
// completed, or aborted at the bag the pass would abort at, found on the
// skeletons of the tree's dual plan. At λ = 1 the verdict is reachability
// (a unit of flow exists exactly when t is reachable from s over edges of
// capacity at least 1), so when t is unreachable only that abort bag is
// sought, with no check over the dual; the charge is the same, as the
// distributed algorithm still runs the probe. The assignment is one dual
// SSSP at λ* (DESIGN §3). For λ* > 0 it is the search's SSSP, one row over
// λ*'s potentials, charged as SSSP over λ*'s labels: the distributed
// algorithm already holds them from λ*'s probe, so their pass is charged
// nowhere.
// λ* = 0 is never probed and its lengths are the state's, so there the
// assignment is a copy of the circulation the state's potentials induce,
// kept with them, and replays the entries
// SSSPFrom charged when the state was built — the labeling pass it stands
// for, then the SSSP's broadcast and tree marking — into led. A canceled
// p.Context() stops the query at the next bag with the context's error.
func MaxFlow(p *artifact.Prepared, s, t int, opt Options, led *ledger.Ledger) (*FlowResult, error) {
	res, fb, err := maxFlow(p, s, t, opt, led)
	if fb != nil {
		res.Flow = slices.Clone(res.Flow)
	}
	return res, err
}

// maxFlow is MaxFlow, also returning the λ = 0 state when the flow is the
// state's own (λ* = 0), for MinSTCut. That flow is the state's Flow itself,
// not a copy: MinSTCut reads only its value, MaxFlow copies it.
func maxFlow(p *artifact.Prepared, s, t int, opt Options, led *ledger.Ledger) (*FlowResult, *artifact.FlowBase, error) {
	g := p.Graph()
	if s == t {
		return nil, nil, errors.New("core: s and t must differ")
	}
	if s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil, nil, fmt.Errorf("core: s=%d t=%d out of range", s, t)
	}

	tree, err := p.Tree(opt.LeafLimit, led)
	if err != nil {
		return nil, nil, err
	}

	// Fixed s-to-t dart path (undirected BFS; Õ(D) rounds), charged here
	// and found when the first probe starts: a pair no λ is probed for
	// never reads it.
	led.Charge("maxflow/find-path", int64(2*(tree.Root.TreeDepth+1)))

	// The λ = 0 state and the search over it, started by the first probe;
	// the assignment fetches the state if no probe ran. A graph with a
	// negative capacity fails the search before either.
	var (
		fb     *artifact.FlowBase
		path   []planar.Dart
		search *label.Search
	)
	defer func() {
		if search != nil {
			search.Close()
		}
	}()
	loadState := func() (err error) {
		if fb == nil {
			fb, err = p.FlowBase(opt.LeafLimit, led)
		}
		return err
	}
	ctx := p.Context()
	lo, iters, err := lambdaStar(g, s, t, func(lambda int64) (bool, error) {
		if search == nil {
			if err := loadState(); err != nil {
				return false, err
			}
			if path, err = dartPath(g, s, t); err != nil {
				return false, err
			}
			if search, err = label.NewSearch(fb.Base, path); err != nil {
				return false, err
			}
		}
		// λ = 1 is feasible exactly when a unit of flow gets from s to t.
		if lambda == 1 && !bfs(g, s, t, true, nil) {
			return false, search.Infeasible(ctx, lambda, led)
		}
		return search.Feasible(ctx, lambda, led)
	})
	if err != nil {
		return nil, nil, err
	}

	// Assignment: dual SSSP potentials from an arbitrary face (§6.1), and
	// the circulation they induce, plus λ* along the path — at λ* = 0 the
	// state's circulation.
	if lo == 0 {
		if err := loadState(); err != nil {
			return nil, nil, err
		}
		led.Merge(fb.Led)
		return &FlowResult{Flow: fb.Flow, Iterations: iters}, fb, nil
	}
	sssp, err := search.SSSP(ctx, lo, 0, led)
	if err != nil {
		return nil, nil, err
	}
	res := &FlowResult{Value: lo, Flow: artifact.Circulation(g, sssp.Dist), Iterations: iters}
	for _, d := range path {
		if planar.IsForward(d) {
			res.Flow[planar.EdgeOf(d)] += lo
		} else {
			res.Flow[planar.EdgeOf(d)] -= lo
		}
	}
	return res, nil, nil
}

// lambdaStar is Miller–Naor's bisection of [0, TotalCap] for λ*, the largest
// feasible λ, probing no λ whose verdict it can infer (DESIGN §3): λ* ≤ U,
// the lesser of the capacity out of s and into t (both st-cuts); λ=0 is
// feasible iff no capacity is negative, since each edge's dual darts form a
// 2-cycle of length Cap(e); λ=1 is probed first, and once it is feasible so
// is every mid ≤ 1. probes counts the probes run.
func lambdaStar(g *planar.Graph, s, t int, feasible func(int64) (bool, error)) (lambda int64, probes int, err error) {
	u, err := lambdaBound(g, s, t)
	if err != nil || u < 1 {
		return 0, 0, err
	}
	if ok, err := feasible(1); err != nil || !ok {
		return 0, 1, err
	}
	lo, hi, probes := int64(0), g.TotalCap()+1, 1
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		ok := mid <= 1
		if !ok && mid <= u {
			probes++
			if ok, err = feasible(mid); err != nil {
				return 0, probes, err
			}
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes, nil
}

// lambdaBound returns U, the lesser of the capacity out of s — its forward
// darts' edges — and into t — its backward darts' — or an error if a
// capacity is negative: deg(s) + deg(t) work.
func lambdaBound(g *planar.Graph, s, t int) (int64, error) {
	if g.MinCap() < 0 {
		return 0, errors.New("core: zero flow infeasible (negative capacity?)")
	}
	var out, in int64
	for _, d := range g.Rotation(s) {
		if planar.IsForward(d) {
			out += g.Edge(planar.EdgeOf(d)).Cap
		}
	}
	for _, d := range g.Rotation(t) {
		if !planar.IsForward(d) {
			in += g.Edge(planar.EdgeOf(d)).Cap
		}
	}
	return min(out, in), nil
}

// dartPath returns an s-to-t path of darts (each dart oriented along the
// walk; it need not follow edge directions): t's parent chain in the
// undirected BFS tree from s (planar.BFS's). The chain's vertices are all
// discovered before t, so the search stops at t. s and t differ.
func dartPath(g *planar.Graph, s, t int) ([]planar.Dart, error) {
	var path []planar.Dart
	if !bfs(g, s, t, false, func(parent []planar.Dart) {
		n := 0
		for v := t; v != s; v = g.Tail(parent[v]) {
			n++
		}
		path = make([]planar.Dart, n)
		for v := t; v != s; v = g.Tail(parent[v]) {
			n--
			path[n] = parent[v]
		}
	}) {
		return nil, fmt.Errorf("core: %d unreachable from %d", t, s)
	}
	return path, nil
}

// bfs searches from s until t is discovered, over every dart or, with
// units, over the forward darts of edges of capacity at least 1 — the
// darts a unit of flow can take — and reports whether it was; on true it
// hands found the parent darts first, per vertex (found may be nil). s and
// t differ. The search runs on recycled arrays (paths).
func bfs(g *planar.Graph, s, t int, units bool, found func(parent []planar.Dart)) bool {
	sc := paths.Get().(*bfsScratch)
	defer paths.Put(sc)
	if len(sc.parent) < g.N() {
		sc.parent, sc.queue = make([]planar.Dart, g.N()), make([]int, 0, g.N())
		for v := range sc.parent {
			sc.parent[v] = planar.NoDart
		}
	}
	parent, queue := sc.parent, append(sc.queue[:0], s)
	for head := 0; head < len(queue) && parent[t] == planar.NoDart; head++ {
		for _, d := range g.Rotation(queue[head]) {
			if units && (!planar.IsForward(d) || g.Edge(planar.EdgeOf(d)).Cap < 1) {
				continue
			}
			if u := g.Head(d); u != s && parent[u] == planar.NoDart {
				parent[u], queue = d, append(queue, u)
			}
		}
	}
	ok := parent[t] != planar.NoDart
	if ok && found != nil {
		found(parent)
	}
	for _, v := range queue {
		parent[v] = planar.NoDart
	}
	sc.queue = queue
	return ok
}

// bfsScratch is bfs's state: per vertex its parent dart, NoDart between
// searches, and the queue.
type bfsScratch struct {
	parent []planar.Dart
	queue  []int
}

// paths recycles bfs's arrays.
var paths = sync.Pool{New: func() any { return new(bfsScratch) }}

// CheckFlow verifies that flow is a feasible st-flow of the claimed value:
// capacity constraints per edge and conservation at every vertex except s
// and t. Used by tests and the harness as a self-check.
func CheckFlow(g *planar.Graph, s, t int, flow []int64, value int64) error {
	net := make([]int64, g.N())
	for e := 0; e < g.M(); e++ {
		f := flow[e]
		ed := g.Edge(e)
		if f < 0 || f > ed.Cap {
			return fmt.Errorf("edge %d: flow %d outside [0,%d]", e, f, ed.Cap)
		}
		net[ed.U] -= f
		net[ed.V] += f
	}
	for v := 0; v < g.N(); v++ {
		switch v {
		case s:
			if net[v] != -value {
				return fmt.Errorf("source imbalance %d, want -%d", net[v], value)
			}
		case t:
			if net[v] != value {
				return fmt.Errorf("sink imbalance %d, want %d", net[v], value)
			}
		default:
			if net[v] != 0 {
				return fmt.Errorf("conservation violated at %d by %d", v, net[v])
			}
		}
	}
	return nil
}

// DinicValue computes the baseline maximum flow value with Dinic's algorithm.
func DinicValue(g *planar.Graph, s, t int) int64 {
	fn := spath.NewFlowNetwork(g.N())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		fn.AddEdge(ed.U, ed.V, ed.Cap, e)
	}
	return fn.MaxFlow(s, t)
}
