package core

import (
	"fmt"

	"planarflow/internal/artifact"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
)

// CutResult is a minimum st-cut: its value, one side of the bisection, and
// the crossing edges.
type CutResult struct {
	Value    int64
	Side     []bool // true = s-side
	CutEdges []int  // edges leaving the s-side
}

// MinSTCut computes the exact directed minimum st-cut (Thm 6.1): run the
// exact max-flow algorithm, then determine the s-side as the vertices
// reachable in the residual graph. The reachability is the paper's primal
// SSSP instance — residual darts get length 0, saturated darts are removed —
// solved by the Li–Parter primal distance labeling in Õ(D²) rounds. Only
// SSSP(s) is read, so label.SSSPFrom answers it with one kernel run over the
// residual graph (DESIGN §3). Unlike MaxFlow's pass at λ* this labeling is
// part of the algorithm, so the pass is charged to led exactly as the full
// labeling would be, then the SSSP over it. The residual lengths depend on
// the flow, so they are per query — but for λ* = 0, whose flow is the λ = 0
// state's for every pair: the state keeps that residual graph and its
// pass's entries, which are replayed into led, and only the row from s
// runs (label.SSSPNonNegative).
func MinSTCut(p *artifact.Prepared, s, t int, opt Options, led *ledger.Ledger) (*CutResult, error) {
	g := p.Graph()
	flow, fb, err := maxFlow(p, s, t, opt, led)
	if err != nil {
		return nil, err
	}
	// The tree is shared with MaxFlow's query above (cache hit).
	tree, err := p.Tree(opt.LeafLimit, led)
	if err != nil {
		return nil, err
	}
	var sssp *label.SSSPResult
	if fb != nil {
		led.Merge(fb.CutLed)
		sssp, err = label.SSSPNonNegative(p.Context(), fb.CutBase, s, led)
	} else {
		sssp, err = label.SSSPFrom(p.Context(), label.Primal, tree, artifact.ResidualLengths(g, flow.Flow), s, led, led)
	}
	if err != nil {
		return nil, err
	}
	if sssp.NegCycle {
		return nil, fmt.Errorf("core: internal: negative cycle in a 0/Inf residual graph")
	}
	dist := sssp.Dist

	side := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		side[v] = dist[v] == 0
	}
	if side[t] {
		return nil, fmt.Errorf("core: t reachable in residual graph (flow not maximum?)")
	}
	res := &CutResult{Side: side}
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		if side[ed.U] && !side[ed.V] {
			res.CutEdges = append(res.CutEdges, e)
			res.Value += ed.Cap
		}
	}
	if res.Value != flow.Value {
		return nil, fmt.Errorf("core: cut %d != flow %d (max-flow min-cut violated)", res.Value, flow.Value)
	}
	return res, nil
}
