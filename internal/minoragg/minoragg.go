// Package minoragg prices the (extended) minor-aggregation model of
// [Zuzic et al. '22, Ghaffari–Zuzic '22] on the dual graph G* (§4.2).
//
// A minor-aggregation round compiles to Õ(1) part-wise aggregations
// (Lemma 4.8); on the dual these are PA instances on the face-disjoint graph
// Ĝ (Theorem 4.10). The package does not run the model's rounds: it prices
// each one by a canonical faces-as-parts PA on Ĝ whose token schedule
// pa.Aggregate simulates, so the Õ(τ·D) CONGEST bound is grounded in the
// realized shortcut congestion/dilation of the instance at hand.
//
// Ĝ, its shortcut skeleton and the measured price of one PA are functions of
// the graph alone, so the package splits in two. Prices — the PA unit and
// log n — is immutable: MeasurePrices builds Ĝ and the skeleton once per
// graph, measures the unit and lets both go, since nothing a query charges
// reads them. Handle is the per-query half: the prices, the graph and the
// ledger this one query charges. A value two queries can share holds no
// ledger.
//
// What the model computes on G* the package executes for real: the
// parallel-edge deactivation of Lemma 4.15 (low out-degree orientation via
// the arboricity algorithm of [Barenboim–Elkin]) that turns the dual
// multigraph into a simple graph, and the cut-edge marking of Lemma 4.17.
package minoragg

import (
	"math/bits"

	"planarflow/internal/hatg"
	"planarflow/internal/ledger"
	"planarflow/internal/pa"
	"planarflow/internal/planar"
)

// Prices is the price card of one graph's dual: the measured CONGEST cost
// of one PA instance on its Ĝ, and the log n factor of a contracting model
// round. Immutable, so every query on the graph may share one.
type Prices struct {
	paUnit int64
	logN   int64
}

// MeasurePrices builds Ĝ and the shortcut skeleton for g and calibrates the
// per-PA round cost with one canonical faces-as-parts aggregation. The
// construction is charged to led.
func MeasurePrices(g *planar.Graph, led *ledger.Ledger) Prices {
	h := hatg.New(g)
	led.Charge("hatg/construct", 2) // Property 1: O(1) rounds
	return RestorePrices(g, pa.NewDualPA(h, led).MeasureUnit())
}

// RestorePrices returns the price card of g given the PA unit measured on
// g's Ĝ by an earlier MeasurePrices (a snapshot carries it); log n derives
// from g.
func RestorePrices(g *planar.Graph, paUnit int64) Prices {
	return Prices{paUnit: paUnit, logN: int64(bits.Len(uint(g.N()))) + 1}
}

// PAUnit returns the measured cost of one PA instance on this instance's Ĝ.
func (p Prices) PAUnit() int64 { return p.paUnit }

// FootprintBytes is what a resident price card keeps alive.
func (p Prices) FootprintBytes() int64 { return 16 }

// Handle charges one query's model rounds on the dual of G at the graph's
// prices.
type Handle struct {
	Prices
	G   *planar.Graph
	led *ledger.Ledger
}

// NewHandle binds the prices of g to the ledger of one query.
func NewHandle(p Prices, g *planar.Graph, led *ledger.Ledger) Handle {
	return Handle{Prices: p, G: g, led: led}
}

// ChargeRounds prices tau minor-aggregation rounds that may contract: each
// compiles to O(log n) PA instances (Boruvka merging, Lemma 4.8) at the
// calibrated per-PA cost.
func (s *Handle) ChargeRounds(phase string, tau int64) {
	s.led.Charge(phase, tau*s.logN*s.paUnit)
}

// ChargeAggRounds prices tau contraction-free model rounds (consensus /
// aggregation only): one PA instance each.
func (s *Handle) ChargeAggRounds(phase string, tau int64) {
	s.led.Charge(phase, tau*s.paUnit)
}

// ChargeVirtual prices tau extended-model rounds with beta virtual nodes
// (Theorem 4.14: Õ(tau·beta·D)).
func (s *Handle) ChargeVirtual(phase string, tau, beta int64) {
	if beta < 1 {
		beta = 1
	}
	s.ChargeRounds(phase, tau*beta)
}

// SimpleDual is the dual graph after Lemma 4.15: self-loops removed and
// parallel edges merged into one active edge carrying the op-aggregate of
// the group's weights.
type SimpleDual struct {
	NumNodes int // faces of G

	// Per merged (active) edge:
	Us, Vs  []int   // endpoint faces, Us[i] < Vs[i] is not guaranteed
	Ws      []int64 // merged weight
	RepEdge []int   // representative primal edge (minimum edge ID in group)

	// GroupOf[e] is the merged edge index of primal edge e, or -1 for
	// self-loops (edges with the same face on both sides).
	GroupOf []int

	// Orientation diagnostics (Lemma 4.15): OutNeighbors[f] counts distinct
	// out-neighbors of face f under the low out-degree orientation.
	OutNeighbors []int
	MaxOutDeg    int
}

// Deactivate runs the parallel-edge deactivation of Lemma 4.15 on G* with
// edge weights given per primal edge and merge operator op. The partition
// H_1..H_l of [Barenboim–Elkin] is executed faithfully on the dual's simple
// support (arboricity <= 3), the induced orientation has O(1) out-neighbors
// per node, and the per-neighbor merges are then performed group by group.
// Model cost: Õ(alpha) minor-aggregation rounds, charged per phase.
func (s *Handle) Deactivate(weights []int64, op pa.Op) *SimpleDual {
	g := s.G
	du := g.Dual()
	nf := du.NumNodes()

	// Simple support adjacency (distinct neighbors, ignoring self-loops) as
	// one CSR: every non-loop dual edge takes a slot at both ends, then each
	// face keeps the first slot per neighbor, found by a stamp, so face f's
	// distinct neighbors are nbr[start[f]:start[f]+deg[f]].
	start := make([]int, nf+1)
	for e := 0; e < g.M(); e++ {
		d := planar.ForwardDart(e)
		if a, b := du.Tail(d), du.Head(d); a != b {
			start[a+1]++
			start[b+1]++
		}
	}
	for f := 0; f < nf; f++ {
		start[f+1] += start[f]
	}
	nbr := make([]int, start[nf])
	deg := make([]int, nf) // slots filled, then distinct neighbors
	for e := 0; e < g.M(); e++ {
		d := planar.ForwardDart(e)
		if a, b := du.Tail(d), du.Head(d); a != b {
			nbr[start[a]+deg[a]] = b
			deg[a]++
			nbr[start[b]+deg[b]] = a
			deg[b]++
		}
	}
	stamp := make([]int, nf) // f+1 once f's list holds the neighbor
	simple := 0
	for f := 0; f < nf; f++ {
		k := 0
		for _, nb := range nbr[start[f] : start[f]+deg[f]] {
			if stamp[nb] != f+1 {
				stamp[nb] = f + 1
				nbr[start[f]+k] = nb
				k++
			}
		}
		deg[f] = k
		simple += k
	}

	// [Barenboim–Elkin] partition: alpha = 3 for planar duals; a white node
	// with at most 2*(2+eps')*alpha white neighbors joins the current part.
	// We use the paper's 3*alpha threshold.
	const alpha = 3
	threshold := 3 * alpha
	part := make([]int, nf) // H-index per face, -1 while white
	for f := range part {
		part[f] = -1
	}
	whiteDeg := append([]int(nil), deg...)
	remaining := nf
	phase := 0
	joined := make([]int, 0, nf)
	for remaining > 0 {
		joined = joined[:0]
		for f := 0; f < nf; f++ {
			if part[f] == -1 && whiteDeg[f] <= threshold {
				joined = append(joined, f)
			}
		}
		if len(joined) == 0 {
			// Cannot happen for arboricity-bounded graphs, but guard against
			// degenerate inputs by force-joining the minimum-degree node.
			best, bd := -1, 1<<30
			for f := 0; f < nf; f++ {
				if part[f] == -1 && whiteDeg[f] < bd {
					best, bd = f, whiteDeg[f]
				}
			}
			joined = append(joined, best)
		}
		for _, f := range joined {
			part[f] = phase
		}
		for _, f := range joined {
			for _, nb := range nbr[start[f] : start[f]+deg[f]] {
				if part[nb] == -1 {
					whiteDeg[nb]--
				}
			}
			remaining--
		}
		// Each phase costs O(threshold) consensus+aggregation steps
		// (counting white neighbors one at a time, §4.2.3) — no contractions.
		s.ChargeAggRounds("dual/deactivate-phase", int64(threshold))
		phase++
	}

	// Orientation: edge (u,v) points to the higher part, ties to higher ID.
	orientOut := func(u, v int) bool {
		if part[u] != part[v] {
			return part[u] < part[v]
		}
		return u < v
	}

	// Each undirected support edge is one group, so the groups number half
	// the support's slots. A face's out-list — O(alpha) long under the
	// orientation, so a merge scans it — reuses the front of its support
	// slots: outTo names the out-neighbor, outGroup its group, and
	// OutNeighbors[f] counts the list. Groups are numbered in edge order.
	sd := &SimpleDual{
		NumNodes:     nf,
		Us:           make([]int, 0, simple/2),
		Vs:           make([]int, 0, simple/2),
		Ws:           make([]int64, 0, simple/2),
		RepEdge:      make([]int, 0, simple/2),
		GroupOf:      make([]int, g.M()),
		OutNeighbors: make([]int, nf),
	}
	outTo, outGroup := nbr, make([]int, len(nbr)) // the partition is done with nbr
	for e := 0; e < g.M(); e++ {
		d := planar.ForwardDart(e)
		a, b := du.Tail(d), du.Head(d)
		if a == b {
			sd.GroupOf[e] = -1 // self-loop: deactivated outright
			continue
		}
		from, to := a, b
		if !orientOut(a, b) {
			from, to = b, a
		}
		gi := -1
		out := start[from]
		for k := out; k < out+sd.OutNeighbors[from]; k++ {
			if outTo[k] == to {
				gi = outGroup[k]
				break
			}
		}
		if gi < 0 {
			gi = len(sd.Us)
			k := out + sd.OutNeighbors[from]
			outTo[k], outGroup[k] = to, gi
			sd.OutNeighbors[from]++
			sd.Us = append(sd.Us, a)
			sd.Vs = append(sd.Vs, b)
			sd.Ws = append(sd.Ws, weights[e])
			sd.RepEdge = append(sd.RepEdge, e)
			sd.GroupOf[e] = gi
			continue
		}
		sd.Ws[gi] = op(sd.Ws[gi], weights[e])
		if e < sd.RepEdge[gi] {
			sd.RepEdge[gi] = e
		}
		sd.GroupOf[e] = gi
	}
	for f := 0; f < nf; f++ {
		if sd.OutNeighbors[f] > sd.MaxOutDeg {
			sd.MaxOutDeg = sd.OutNeighbors[f]
		}
	}
	// Per-neighbor merges: O(alpha) aggregation steps.
	s.ChargeAggRounds("dual/deactivate-merge", int64(3*alpha))
	return sd
}

// MarkDualCutEdges returns, given one side of a cut of G*, the primal edges
// whose dual crosses the cut — by cycle-cut duality (Fact 3.1) these form
// the corresponding primal cycle. Model cost: O(1) minor-aggregation rounds
// (Lemma 4.17).
func (s *Handle) MarkDualCutEdges(side []bool) []int {
	du := s.G.Dual()
	var out []int
	for e := 0; e < s.G.M(); e++ {
		d := planar.ForwardDart(e)
		if side[du.Tail(d)] != side[du.Head(d)] {
			out = append(out, e)
		}
	}
	s.ChargeAggRounds("dual/mark-cut-edges", 2)
	return out
}
