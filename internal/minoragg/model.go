package minoragg

import (
	"fmt"

	"planarflow/internal/pa"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// Model executes minor-aggregation algorithms (Definition 4.7, extended per
// Definition 4.11) on the dual graph G*. Nodes are the faces of G plus any
// virtual nodes added by the caller; edges are the dual edges plus virtual
// edges. Contraction maintains super-nodes; consensus and aggregation steps
// over *real* nodes execute as part-wise aggregations on Ĝ (Theorem 4.10),
// so their round cost is the measured PA cost of the instance; virtual-node
// participation is priced by the extended-model simulation (Theorem 4.14).
type Model struct {
	sim *Simulator

	numReal int // faces of G
	numNode int // faces + virtual nodes

	// super[x] = current super-node representative of node x.
	super []int

	edges   []ModelEdge
	virtual []bool // per node
}

// ModelEdge is an edge of the simulated (multi)graph.
type ModelEdge struct {
	A, B int
	// Dart is the primal dart for dual edges (NoDart for virtual edges).
	Dart planar.Dart
	// Weight is caller-defined (used by aggregation helpers).
	Weight int64
	// Contracted marks edges already inside a super-node.
	Contracted bool
}

// NewModel starts a model run over G* with one edge per primal edge
// (self-loops dropped) carrying the given weights.
func NewModel(sim *Simulator, weights []int64) *Model {
	du := sim.G.Dual()
	m := &Model{
		sim:     sim,
		numReal: du.NumNodes(),
		numNode: du.NumNodes(),
	}
	m.super = make([]int, m.numReal)
	m.virtual = make([]bool, m.numReal)
	for i := range m.super {
		m.super[i] = i
	}
	for e := 0; e < sim.G.M(); e++ {
		d := planar.ForwardDart(e)
		a, b := du.Tail(d), du.Head(d)
		if a == b {
			continue
		}
		w := int64(0)
		if weights != nil {
			w = weights[e]
		}
		m.edges = append(m.edges, ModelEdge{A: a, B: b, Dart: d, Weight: w})
	}
	return m
}

// NumNodes returns the current node count (real + virtual).
func (m *Model) NumNodes() int { return m.numNode }

// NumSuperNodes returns the number of distinct super-nodes.
func (m *Model) NumSuperNodes() int {
	seen := map[int]bool{}
	for _, s := range m.super {
		seen[s] = true
	}
	return len(seen)
}

// Super returns the super-node of node x.
func (m *Model) Super(x int) int { return m.super[x] }

// Edges returns the live (uncontracted) edges. The slice must not be
// modified.
func (m *Model) Edges() []ModelEdge { return m.edges }

// AddVirtualNode adds a virtual node connected to the given (super-)nodes
// with the given weights; all real nodes learn its identity (Lemma 4.12).
// The extended model admits Õ(1) virtual nodes; exceeding that only affects
// the charged rounds (beta multiplier), not correctness.
func (m *Model) AddVirtualNode(neighbors []int, weights []int64) int {
	x := m.numNode
	m.numNode++
	m.super = append(m.super, x)
	m.virtual = append(m.virtual, true)
	for i, nb := range neighbors {
		var w int64
		if weights != nil {
			w = weights[i]
		}
		m.edges = append(m.edges, ModelEdge{A: x, B: nb, Dart: planar.NoDart, Weight: w})
	}
	m.sim.ChargeVirtual("model/add-virtual", 1, int64(m.numNode-m.numReal))
	return x
}

// ContractionStep contracts every edge for which choose returns true
// (Definition 4.7 step 1). Super-nodes are merged along chosen edges; the
// merging compiles to O(log n) PA rounds (Boruvka star-merges), charged
// accordingly.
func (m *Model) ContractionStep(choose func(e ModelEdge) bool) {
	// Union-find over super-nodes.
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, e := range m.edges {
		if e.Contracted {
			continue
		}
		sa, sb := m.super[e.A], m.super[e.B]
		if sa == sb || !choose(e) {
			continue
		}
		ra, rb := find(sa), find(sb)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for x := range m.super {
		m.super[x] = find(m.super[x])
	}
	for i := range m.edges {
		if m.super[m.edges[i].A] == m.super[m.edges[i].B] {
			m.edges[i].Contracted = true
		}
	}
	m.sim.ChargeRounds("model/contraction", 1)
}

// ConsensusStep computes, for every super-node, the op-aggregate of the
// per-node inputs; every node of the super-node learns it (Definition 4.7
// step 2). Real nodes execute through a PA on Ĝ; virtual members fold in
// under the extended-model charge.
func (m *Model) ConsensusStep(input func(node int) int64, identity int64, op pa.Op) map[int]int64 {
	// Compact super-node ids for the PA parts.
	part := map[int]int{}
	var supers []int
	for x := 0; x < m.numNode; x++ {
		s := m.super[x]
		if _, ok := part[s]; !ok {
			part[s] = len(supers)
			supers = append(supers, s)
		}
	}
	partOfFace := make([]int, m.numReal)
	faceInput := make([]int64, m.numReal)
	for f := 0; f < m.numReal; f++ {
		partOfFace[f] = part[m.super[f]]
		faceInput[f] = input(f)
	}
	vals := m.sim.PA.AggregateFaces(partOfFace, len(supers), faceInput, identity, op, m.sim.led)
	// Fold virtual members (simulated by all vertices; Thm 4.14).
	beta := int64(m.numNode - m.numReal)
	if beta > 0 {
		for x := m.numReal; x < m.numNode; x++ {
			p := part[m.super[x]]
			vals[p] = op(vals[p], input(x))
		}
		m.sim.ChargeVirtual("model/consensus-virtual", 1, beta)
	}
	out := make(map[int]int64, len(supers))
	for i, s := range supers {
		out[s] = vals[i]
	}
	return out
}

// AggregationStep computes, for every super-node, the op-aggregate of
// z-values over its incident live edges (Definition 4.7 step 3). The z
// function receives the edge and the endpoint (node id) on the aggregating
// side.
func (m *Model) AggregationStep(z func(e ModelEdge, endpoint int) int64, identity int64, op pa.Op) map[int]int64 {
	out := map[int]int64{}
	seen := map[int]bool{}
	for x := 0; x < m.numNode; x++ {
		s := m.super[x]
		if !seen[s] {
			seen[s] = true
			out[s] = identity
		}
	}
	for _, e := range m.edges {
		if e.Contracted || m.super[e.A] == m.super[e.B] {
			continue
		}
		sa, sb := m.super[e.A], m.super[e.B]
		out[sa] = op(out[sa], z(e, e.A))
		out[sb] = op(out[sb], z(e, e.B))
	}
	// One PA over edge endpoints (chord copies know their edges, Lemma 4.9);
	// virtual edges are priced by the extended simulation.
	m.sim.ChargeAggRounds("model/aggregation", 1)
	if beta := int64(m.numNode - m.numReal); beta > 0 {
		m.sim.ChargeVirtual("model/aggregation-virtual", 1, beta)
	}
	return out
}

// MSTResult is the output of the Boruvka minimum-spanning-forest run.
type MSTResult struct {
	Edges  []ModelEdge
	Weight int64
	Phases int
}

// BoruvkaMST computes a minimum spanning forest of G* (ties broken by dart
// id) entirely through model rounds: each phase aggregates the minimum
// incident edge per super-node and contracts the chosen edges — the classic
// Õ(1)-round minor-aggregation algorithm ([43], Example 4.4) that §6.1 uses
// to complete approximate SSSP trees across zero-weight edges.
func (m *Model) BoruvkaMST() *MSTResult {
	res := &MSTResult{}
	const inf = spath.Inf
	for phase := 0; phase < 64; phase++ {
		if m.NumSuperNodes() <= 1 {
			break
		}
		// Key edges by (weight, dart) to break ties consistently.
		key := func(e ModelEdge) int64 { return e.Weight*int64(1<<22) + int64(e.Dart) }
		best := m.AggregationStep(func(e ModelEdge, _ int) int64 { return key(e) }, inf, pa.Min)
		chosen := map[int64]bool{}
		progress := false
		for _, k := range best {
			if k < inf {
				chosen[k] = true
				progress = true
			}
		}
		if !progress {
			break // remaining super-nodes are disconnected
		}
		for _, e := range m.edges {
			if !e.Contracted && chosen[key(e)] && m.super[e.A] != m.super[e.B] {
				res.Edges = append(res.Edges, e)
				res.Weight += e.Weight
			}
		}
		m.ContractionStep(func(e ModelEdge) bool { return chosen[key(e)] })
		res.Phases = phase + 1
	}
	return res
}

// String summarizes the model state (debugging aid).
func (m *Model) String() string {
	return fmt.Sprintf("minoragg.Model{nodes=%d real=%d supers=%d edges=%d}",
		m.numNode, m.numReal, m.NumSuperNodes(), len(m.edges))
}
