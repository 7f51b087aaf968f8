package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"planarflow/internal/artifact"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// STPlanarResult is an (approximate) maximum st-flow of an undirected
// st-planar instance.
type STPlanarResult struct {
	Value int64
	// Flow[e] is signed: positive pushes U->V, negative V->U; |Flow[e]| <=
	// Cap(e).
	Flow    []int64
	Epsilon float64
}

// hassinDual is the augmented dual of Hassin's reduction for one (s, t)
// pair: G* with the common face of s and t split in two by a virtual edge
// (t,s) that is never crossed. The virtual edge is not embedded: it leaves
// every other face as it is and cuts the common face's dart cycle at one
// corner of t and one of s, so the split is read off g.Faces() in place —
// the common face keeps its id and the arc of the cycle that wraps around
// its first dart, the other arc is one new node, NumFaces(), whose darts
// are marked. No digraph is built: node v's out-arcs are its face's darts
// in ascending order (planar.FaceData.Ascending), dart d an arc to the node
// of Rev(d) as long as d's (scaled) capacity — the lists a digraph filled
// dart by dart would hold, so spath.Search visits arcs, and breaks ties, as
// spath.Dijkstra over that digraph does. Its arrays are pooled across
// queries and graphs.
type hassinDual struct {
	fd     *planar.FaceData
	face   int           // the common face split
	f1, f2 int           // the nodes left and right of the virtual edge (t,s)
	split  []planar.Dart // the new node's darts, an interval of face's cycle
	mark   []bool        // per dart: on split
	length []int64       // per edge: its (scaled) capacity
	out    []spath.Arc   // Out's buffer
	tree   spath.Search
}

var hassinPool = sync.Pool{New: func() any { return new(hassinDual) }}

// newHassinDual splits the first common face of s and t in t's rotation,
// under capacity lengths scaled down by (1-eps): both darts of every edge
// carry the (scaled) capacity. eps outside [0, 1) — NaN included, which
// would scale every capacity to MinInt64 — is refused. The caller gives the
// dual back with release.
func newHassinDual(g *planar.Graph, s, t int, eps float64) (*hassinDual, error) {
	if !(eps >= 0 && eps < 1) {
		return nil, fmt.Errorf("core: eps=%v out of [0,1)", eps)
	}
	if s == t {
		return nil, errors.New("core: s and t must differ")
	}
	face := g.FirstCommonFace(s, t)
	if face < 0 {
		return nil, fmt.Errorf("%w (vertices %d, %d)", ErrNotSTPlanar, s, t)
	}
	fd := g.Faces()
	cyc := fd.Cycle(face)
	// The virtual edge leaves x inside the first corner of the face in x's
	// rotation: right after Rev(a) for the first dart a of the face arriving
	// at x. corner returns a's place on the cycle.
	corner := func(x int) int {
		for _, d := range g.Rotation(x) {
			if a := planar.Rev(d); fd.FaceOf(a) == face {
				for i, c := range cyc {
					if c == a {
						return i
					}
				}
			}
		}
		panic("core: vertex not on its own face") // FirstCommonFace said it is
	}
	// The cycle falls apart into the cyclic intervals (as, at], left of the
	// virtual edge t->s, and (at, as], right of it. The one that does not
	// wrap around the cycle's first dart becomes the new node.
	at, as := corner(t), corner(s)
	h := hassinPool.Get().(*hassinDual)
	h.fd, h.face, h.split = fd, face, cyc[min(at, as)+1:max(at, as)+1]
	if len(h.mark) < g.NumDarts() {
		h.mark = make([]bool, g.NumDarts())
	}
	for _, d := range h.split {
		h.mark[d] = true
	}
	h.f1, h.f2 = h.node(cyc[at]), h.node(cyc[as])
	h.length = slices.Grow(h.length[:0], g.M())[:g.M()]
	for e := range h.length {
		h.length[e] = g.Edge(e).Cap
		if eps != 0 {
			h.length[e] = int64(math.Floor((1 - eps) * float64(h.length[e])))
		}
	}
	return h, nil
}

// release unmarks the split and puts the dual back in the pool, holding no
// graph.
func (h *hassinDual) release() {
	for _, d := range h.split {
		h.mark[d] = false
	}
	h.fd, h.split = nil, nil
	hassinPool.Put(h)
}

// node returns the augmented-dual node that holds dart d.
func (h *hassinDual) node(d planar.Dart) int {
	if h.mark[d] {
		return h.fd.NumFaces()
	}
	return h.fd.FaceOf(d)
}

// N returns the number of augmented-dual nodes: the faces and the new one.
func (h *hassinDual) N() int { return h.fd.NumFaces() + 1 }

// Out returns node v's out-arcs, valid until the next call.
func (h *hassinDual) Out(v int) []spath.Arc {
	f, split := v, v == h.fd.NumFaces()
	if split {
		f = h.face
	}
	h.out = slices.Grow(h.out[:0], h.fd.Len(f))
	for _, d := range h.fd.Ascending(f) {
		if h.mark[d] == split {
			h.out = append(h.out, spath.Arc{To: h.node(planar.Rev(d)), Len: h.length[planar.EdgeOf(d)], ID: int(d)})
		}
	}
	return h.out
}

// search runs Dijkstra from f1 and returns dist(f1, f2), spath.Inf when f2
// is unreachable.
func (h *hassinDual) search() int64 {
	h.tree.Run(h, h.f1)
	return h.tree.Dist[h.f2]
}

// oracleTau is the T_SSSP(eps) minor-aggregation rounds of the approximate
// SSSP oracle on the virtual dual. Its n^{o(1)} factor is the fixed proxy
// ceil(log n) * ceil(1/eps) per DESIGN.md §2.5.
func oracleTau(g *planar.Graph, eps float64) int64 {
	tau := int64(bits.Len(uint(g.N())))
	if eps > 0 {
		tau *= int64(math.Ceil(1 / eps))
	}
	return tau
}

// STPlanarMaxFlow computes a (1-eps)-approximate maximum st-flow of an
// undirected planar graph whose s and t share a face (Thm 1.3), following
// Hassin's reduction: add a virtual edge (t,s) inside the common face,
// splitting it into faces f1, f2; the flow value is dist(f1, f2) in the
// augmented dual under capacity lengths, and smooth approximate distances
// from f1 give a feasible assignment via face potentials.
//
// eps = 0 runs the exact oracle. The paper's approximate SSSP oracle
// ([43] + the smoothing of [41]) is substituted by an exact Dijkstra over
// capacities scaled down by (1-eps): the resulting distances are smooth by
// construction (they satisfy the triangle inequality of the scaled
// lengths), which is precisely the property the assignment needs.
// The augmented dual depends on the (s, t) pair, so the reduction itself is
// per-query work; what prices it — the minor-aggregation simulator's PA unit
// on this graph's Ĝ — is the prepared artifact's, built by the first query
// that needs it.
func STPlanarMaxFlow(p *artifact.Prepared, s, t int, eps float64, led *ledger.Ledger) (*STPlanarResult, error) {
	g := p.Graph()
	h, err := newHassinDual(g, s, t, eps)
	if err != nil {
		return nil, err
	}
	defer h.release()
	// Detecting the common face costs one PA on Ĝ (§6.1); the graph's
	// calibrated unit prices it and the oracle rounds: Theorem 4.14 with
	// beta=2 virtual nodes replacing the split face.
	sim, err := p.MinorAgg(led)
	if err != nil {
		return nil, err
	}
	sim.ChargeRounds("hassin/detect-face", 1)
	sim.ChargeVirtual("hassin/approx-sssp-oracle", oracleTau(g, eps), 2)

	value := h.search()
	if value >= spath.Inf {
		return nil, errors.New("core: dual target unreachable (zero cut?)")
	}
	res := &STPlanarResult{Value: value, Epsilon: eps, Flow: make([]int64, g.M())}
	for e := range res.Flow {
		fw := planar.ForwardDart(e)
		res.Flow[e] = h.tree.Dist[h.node(planar.Rev(fw))] - h.tree.Dist[h.node(fw)]
	}
	return res, nil
}

// STPlanarMinCut computes the corresponding (approximate) minimum st-cut
// (Thm 6.2): by Reif's st-separating-cycle duality, the duals of the arcs on
// the shortest f1-to-f2 path are the cut edges.
func STPlanarMinCut(p *artifact.Prepared, s, t int, eps float64, led *ledger.Ledger) (*CutResult, error) {
	g := p.Graph()
	h, err := newHassinDual(g, s, t, eps)
	if err != nil {
		return nil, err
	}
	defer h.release()
	sim, err := p.MinorAgg(led)
	if err != nil {
		return nil, err
	}
	sim.ChargeRounds("stcut/detect-face", 1)
	sim.ChargeVirtual("stcut/approx-sssp-oracle", oracleTau(g, eps), 2)

	if h.search() >= spath.Inf {
		return nil, errors.New("core: dual target unreachable")
	}
	// Walk the shortest-path tree from f2 back to f1: its arcs' primal
	// edges are the cut (the st-separating cycle closes through the virtual
	// edge).
	res := &CutResult{}
	inCut := make([]bool, g.M())
	for v := h.f2; v != h.f1; v = h.tree.Parent[v] {
		e := planar.EdgeOf(planar.Dart(h.tree.ParentArcID[v]))
		if !inCut[e] {
			inCut[e] = true
			res.CutEdges = append(res.CutEdges, e)
			res.Value += g.Edge(e).Cap // unscaled cut weight
		}
	}
	// Bisection: remove the cut edges; the s-side is s's component.
	res.Side = make([]bool, g.N())
	res.Side[s] = true
	stack := []int{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range g.Rotation(v) {
			if inCut[planar.EdgeOf(d)] {
				continue
			}
			u := g.Head(d)
			if !res.Side[u] {
				res.Side[u] = true
				stack = append(stack, u)
			}
		}
	}
	if res.Side[t] {
		return nil, errors.New("core: cut does not separate s from t")
	}
	return res, nil
}

// CheckUndirectedFlow validates an undirected (signed) st-flow: capacities
// respected in absolute value, conservation away from s and t, and the
// claimed value leaving s.
func CheckUndirectedFlow(g *planar.Graph, s, t int, flow []int64, value int64) error {
	net := make([]int64, g.N())
	for e := 0; e < g.M(); e++ {
		f := flow[e]
		ed := g.Edge(e)
		if f > ed.Cap || -f > ed.Cap {
			return fmt.Errorf("edge %d: |flow| %d exceeds cap %d", e, f, ed.Cap)
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

// UndirectedDinicValue is the undirected max-flow baseline (each edge as two
// opposing arcs of the same capacity).
func UndirectedDinicValue(g *planar.Graph, s, t int) int64 {
	fn := spath.NewFlowNetwork(g.N())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		fn.AddEdge(ed.U, ed.V, ed.Cap, e)
		fn.AddEdge(ed.V, ed.U, ed.Cap, e)
	}
	return fn.MaxFlow(s, t)
}
