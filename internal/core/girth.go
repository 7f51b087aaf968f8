package core

import (
	"fmt"
	"math/bits"

	"planarflow/internal/artifact"
	"planarflow/internal/ledger"
	"planarflow/internal/pa"
	"planarflow/internal/spath"
)

// GirthResult is a minimum-weight cycle of an undirected weighted planar
// graph.
type GirthResult struct {
	Weight     int64 // spath.Inf when the graph is acyclic
	CycleEdges []int // edges of one minimum-weight cycle
}

// Girth computes the weighted girth of an undirected planar graph with
// positive integer weights (Thm 1.7): simulate a minor-aggregation exact
// minimum-cut computation on the dual G* (parallel edges deactivated with
// summed weights per Lemma 4.15), then mark the cut edges (Lemma 4.17); by
// cycle-cut duality (Fact 3.1) they form a minimum-weight primal cycle.
// Total model cost is Õ(1) minor-aggregation rounds = Õ(D) CONGEST rounds,
// all priced through the measured PA unit of the instance.
//
// The route needs no BDD or labeling; its one build-phase cost is the
// prepared artifact's minor-aggregation prices (Ĝ, the shortcut skeleton,
// one measured PA), charged to the first query on the graph that needs them.
func Girth(p *artifact.Prepared, led *ledger.Ledger) (*GirthResult, error) {
	g := p.Graph()
	for e := 0; e < g.M(); e++ {
		if g.Edge(e).Weight <= 0 {
			return nil, fmt.Errorf("core: girth: edge %d has weight %d: %w", e, g.Edge(e).Weight, ErrNonPositiveWeight)
		}
	}
	sim, err := p.MinorAgg(led)
	if err != nil {
		return nil, err
	}
	weights := make([]int64, g.M())
	for e := range weights {
		weights[e] = g.Edge(e).Weight
	}
	sd := sim.Deactivate(weights, pa.Sum)
	if len(sd.Us) == 0 {
		// Dual has no non-loop edges: G is a tree (all bridges), acyclic.
		return &GirthResult{Weight: spath.Inf}, nil
	}

	// Substituted black box: the minor-aggregate exact min-cut of
	// Ghaffari–Zuzic [18] (Õ(1) model rounds, here priced as ceil(log n)
	// contracting model rounds) executed on the simple dual as a contraction
	// test, then Stoer–Wagner on what it leaves.
	logn := int64(bits.Len(uint(g.N())))
	sim.ChargeRounds("girth/minor-agg-mincut", logn)
	w, side := spath.GlobalMinCut(sd.NumNodes, sd.Us, sd.Vs, sd.Ws)
	if w >= spath.Inf {
		return &GirthResult{Weight: spath.Inf}, nil
	}

	res := &GirthResult{
		Weight:     w,
		CycleEdges: sim.MarkDualCutEdges(side),
	}
	return res, nil
}
