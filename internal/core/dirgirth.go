package core

import (
	"errors"
	"fmt"

	"planarflow/internal/artifact"
	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// DirectedGirth computes the minimum total weight of a directed cycle in a
// planar digraph with non-negative weights, via the SSSP/BDD route of
// Parter [36] that the paper contrasts with its Õ(D) undirected girth
// (Question 1.6): any shortest cycle either stays inside a child bag
// (recursion) or passes a separator vertex, where it decomposes into a
// closing arc (u -> v) plus a shortest v-to-u path decoded from the primal
// distance labels. The separator vertices are the labeling's own (the key
// set of the bag's To/From maps), and the closing arcs are found in one pass
// over the bag's darts. Runs in Õ(D²) charged rounds — the ablation partner
// of Girth's Õ(D).
func DirectedGirth(p *artifact.Prepared, opt Options, led *ledger.Ledger) (int64, error) {
	g := p.Graph()
	for e := 0; e < g.M(); e++ {
		if g.Edge(e).Weight < 0 {
			return 0, fmt.Errorf("core: directed girth: edge %d has weight %d: %w", e, g.Edge(e).Weight, ErrNegativeWeight)
		}
	}
	// The directed length function (weight forward, deactivated backward) is
	// exactly the directed distance oracle's, so the labeling is a shared
	// artifact: repeated directed-girth queries, or a directed oracle on the
	// same graph, reuse it.
	tree, err := p.Tree(opt.LeafLimit, led)
	if err != nil {
		return 0, err
	}
	la, err := p.PrimalLabels(artifact.Directed, opt.LeafLimit, led)
	if err != nil {
		return 0, err
	}
	if la.NegCycle {
		return 0, errors.New("core: internal: negative cycle with non-negative weights")
	}

	// Cycles inside a leaf: the primal view keeps no DDG, so MinCycles visits
	// the leaves alone.
	best := spath.Inf
	la.MinCycles(func(_ *bdd.Bag, c int64) { best = min(best, c) })
	inSep := make([]bool, g.N())
	for _, b := range tree.Bags {
		if b.IsLeaf() {
			continue
		}
		sep := la.Separator(b)
		for _, v := range sep {
			inSep[v] = true
		}
		// Closing arcs (u -> v) into a separator vertex v: each edge of the
		// bag once, through its forward dart or, when only the backward one
		// is in the bag, through that.
		for _, d := range b.Darts {
			if !planar.IsForward(d) && b.Has(planar.Rev(d)) {
				continue
			}
			ed := g.Edge(planar.EdgeOf(d))
			if !inSep[ed.V] {
				continue
			}
			// dist(v -> u) in the bag.
			if back := label.Decode(la.Label(b, ed.V), la.Label(b, ed.U)); back < spath.Inf {
				if c := back + ed.Weight; c < best {
					best = c
				}
			}
		}
		for _, v := range sep {
			inSep[v] = false
		}
	}
	led.Charge("dirgirth/assemble", int64(2*(tree.Root.TreeDepth+1)))
	return best, nil
}
