package label

import (
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// SSSPResult is the outcome of a single-source computation over a labeling
// (Lemma 2.2 in the dual view, [27]'s SSSP in the primal).
type SSSPResult struct {
	Source   int
	Dist     []int64 // per key of the graph; spath.Inf if unreachable
	NegCycle bool
	// TreeDart[f] is the dart whose dual arc enters f on the marked
	// shortest-path tree (NoDart at the source/unreachable faces). Dual view
	// only; nil in the primal, whose SSSP marks no tree, and from
	// Search.SSSP, which charges the marking but skips it.
	TreeDart []planar.Dart
}

// SSSP computes single-source shortest paths from the given source key by
// broadcasting the source's label and decoding everywhere; in the dual view
// it then marks a shortest-path tree via one aggregation per face (Lemma
// 2.2). The label broadcast is charged at its measured word count over a
// depth-D tree. A key without a label (a vertex with no dart) is
// unreachable. A labeling that found a negative cycle reports it and
// charges nothing.
func (la *Labeling) SSSP(source int, led *ledger.Ledger) *SSSPResult {
	res := &SSSPResult{Source: source}
	if la.NegCycle {
		res.NegCycle = true
		return res
	}
	res.Dist = make([]int64, la.pl.v.numKeys(la.T.G))
	for k := range res.Dist {
		res.Dist[k] = spath.Inf
	}
	words := 0
	if src := la.RootLabel(source); src != nil {
		words = src.Words()
		root := la.byBag[la.T.Root.ID]
		for i := range root {
			res.Dist[root[i].key] = Decode(src, &root[i])
		}
	}
	la.pl.finishSSSP(res, la.Lengths, words, true, led)
	return res
}

// finishSSSP charges the broadcast of the source's words-word label over a
// depth-D tree and, in a view whose SSSP marks one, marks the shortest-path
// tree res.Dist realizes under lengths: for each key k, the incoming arc
// minimizing dist(s, tail) + len, least dart first — one PA on the graph (we
// mark centrally and charge the measured-equivalent single aggregation;
// callers with a minoragg simulator charge its calibrated unit instead).
// Without mark the marking is charged but not run.
func (pl *plan) finishSSSP(res *SSSPResult, lengths []int64, words int, mark bool, led *ledger.Ledger) {
	g, v, depth := pl.t.G, pl.v, pl.t.Root.TreeDepth
	led.Charge(v.broadcastPhase, ledger.PipelinedBroadcastRounds(int64(depth), int64(words)))
	if !v.marksTree {
		return
	}
	led.Charge(v.markPhase, int64(2*(depth+1)))
	if !mark {
		return
	}
	res.TreeDart = make([]planar.Dart, len(res.Dist))
	for k := range res.TreeDart {
		res.TreeDart[k] = planar.NoDart
	}
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		if lengths[d] >= spath.Inf {
			continue
		}
		from, to := v.ends(g, d)
		if to == res.Source || res.Dist[from] >= spath.Inf {
			continue
		}
		// cand < Dist[to] cannot happen without a negative cycle.
		if cand := res.Dist[from] + lengths[d]; cand == res.Dist[to] {
			if cur := res.TreeDart[to]; cur == planar.NoDart || d < cur {
				res.TreeDart[to] = d
			}
		}
	}
}

// UniformLengths builds a per-dart length vector realizing the "dual of a
// weighted directed graph" convention used by the girth and min-cut
// reductions: the dual arc of edge e's forward dart carries e's weight and
// the reverse dart is deactivated (one dual arc per primal edge).
func UniformLengths(g *planar.Graph, forwardOnly bool) []int64 {
	lens := make([]int64, g.NumDarts())
	for e := 0; e < g.M(); e++ {
		lens[planar.ForwardDart(e)] = g.Edge(e).Weight
		if forwardOnly {
			lens[planar.BackwardDart(e)] = spath.Inf
		} else {
			lens[planar.BackwardDart(e)] = g.Edge(e).Weight
		}
	}
	return lens
}
