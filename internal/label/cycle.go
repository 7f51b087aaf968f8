package label

import (
	"planarflow/internal/bdd"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// MinCycles hands visit, bag by bag, the weight of the lightest dart-simple
// cycle that the bag's local graph holds whole under the labeling's lengths
// (spath.Inf when there is none):
//
//   - in a leaf, any cycle of the leaf's graph: the minimum over its arcs a of
//     len(a) + dist(head(a) → tail(a)) with rev(a) masked, over the plan's
//     CSR skeleton — exactly the arcs Bag.DualArcs yields in the dual view,
//     both darts of every edge of the bag in the primal;
//   - in a non-leaf bag whose base DDG the labeling retains (the dual view),
//     the cycles through its dual separator (§7's two options): per
//     separator arc a as in a leaf, and per face split between the children
//     a path from one representative to the other that avoids the face's
//     zero arcs.
//
// Non-leaf bags without a DDG are not visited: in the primal view the
// cycles through a separator vertex are the caller's (DirectedGirth decodes
// them from the labels). The labeling must be free of negative cycles and
// its lengths non-negative. Local computation, like the labeling pass's own:
// nothing is charged.
func (la *Labeling) MinCycles(visit func(b *bdd.Bag, w int64)) {
	var k kernel
	for _, b := range la.T.Bags {
		switch {
		case b.IsLeaf():
			k.load(&la.pl.bags[b.ID].leaf, la.Lengths)
			visit(b, k.arcCycles())
		case la.ddgs != nil:
			ddg := la.ddgs[b.ID]
			k.loadArcs(len(ddg.Nodes), ddg.Arcs)
			best := k.arcCycles()
			// A face split between the children has a representative in
			// each; the only dartless arc between them is its zero arc
			// (clique arcs join different faces), so masking NoDart masks it.
			for _, reps := range ddg.RepsOf {
				for _, r1 := range reps {
					for _, r2 := range reps {
						if r1 != r2 {
							best = min(best, k.shortest(r1, r2, planar.NoDart, best))
						}
					}
				}
			}
			visit(b, best)
		}
	}
}

// arcCycles returns the weight of the lightest cycle of the loaded graph
// that closes an arc a carrying a dart: len(a) plus the way back from its
// head to its tail, with rev(a) masked (spath.Inf when there is none). A
// DDG's clique and zero arcs carry no dart.
func (k *kernel) arcCycles() int64 {
	best := spath.Inf
	for u := 0; u < k.n; u++ {
		for i, end := k.start[u], k.start[u+1]; i < end; i++ {
			l := k.length[i]
			if l >= best || k.dart[i] == planar.NoDart {
				continue
			}
			if back := k.shortest(int(k.to[i]), u, planar.Rev(k.dart[i]), best-l); back < spath.Inf {
				best = l + back
			}
		}
	}
	return best
}
