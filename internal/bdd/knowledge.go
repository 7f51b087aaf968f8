package bdd

import (
	"fmt"
	"math/bits"
	"slices"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// Knowledge is the distributed-knowledge layer of §5.1.3 (Lemmas 5.10–5.14,
// Properties 13–14): what each vertex locally knows about the decomposition
// after the per-level broadcasts of Algorithm 1. Concretely, for every
// incident dart a vertex knows (a) the chain of bags containing the dart,
// one per level (Lemma 5.10), (b) the face/face-part node the dart belongs
// to in each of those bags together with whether it is whole, a part, or
// the bag's critical face (Property 13), and (c) whether the dart's edge
// has a dual edge in each bag, i.e. whether both darts are present
// (Property 14).
//
// The construction itself is derived from the BDD; what this layer adds is
// the *round accounting* of acquiring it distributively (face-ID assignment
// via Ĝ, critical-face detection and the pipelined face-part upcasts of
// Algorithm 1) and a Verify pass asserting the knowledge is consistent with
// the central structures.
type Knowledge struct {
	T *BDD

	// BagChain[d] lists, per level, the bag containing dart d
	// (Lemma 5.5: exactly one per level until the dart's leaf).
	BagChain [][]int

	// HasDual[bagID] reports per edge whether its dual edge exists in the
	// bag (both darts present) — Property 14.
	HasDual []map[int]bool

	// Critical[bagID] is the face split between the bag's children (-1 if
	// none) — the critical face of Lemma 5.3.
	Critical []int
}

// BuildKnowledge derives the per-vertex local views and charges the
// broadcast rounds of Algorithm 1: per level, the critical-face
// announcement plus one pipelined upcast message per face-part (O(log n)
// messages of Õ(1) bits over a depth-Õ(D) tree).
func BuildKnowledge(t *BDD, led *ledger.Ledger) *Knowledge {
	g := t.G
	k := &Knowledge{
		T:        t,
		BagChain: make([][]int, g.NumDarts()),
		HasDual:  make([]map[int]bool, len(t.Bags)),
		Critical: make([]int, len(t.Bags)),
	}
	levelCost := map[int]int{}
	for _, b := range t.Bags {
		k.HasDual[b.ID] = make(map[int]bool)
		for e := 0; e < g.M(); e++ {
			if b.HasEdge(e) {
				k.HasDual[b.ID][e] = b.Has(planar.ForwardDart(e)) && b.Has(planar.BackwardDart(e))
			}
		}
		k.Critical[b.ID] = -1
		faceParts := 0
		if !b.IsLeaf() {
			for _, f := range b.Faces {
				split := slices.Contains(b.Children[0].Faces, f) && slices.Contains(b.Children[1].Faces, f)
				if !split {
					continue
				}
				if b.IsWhole(f) {
					k.Critical[b.ID] = f
				} else {
					faceParts++
				}
			}
		}
		for _, d := range b.Darts {
			k.BagChain[d] = append(k.BagChain[d], b.ID)
		}
		// Algorithm 1 cost for this bag: one critical-face broadcast plus
		// one pipelined upcast message per face-part over the bag's tree.
		cost := b.TreeDepth + 2 + faceParts
		if cost > levelCost[b.Level] {
			levelCost[b.Level] = cost
		}
	}
	// Face-ID assignment on Ĝ (Lemma 5.11) is an Õ(D)-round PA; the
	// per-level Algorithm 1 phases run in parallel with 2x overhead.
	logn := int64(bits.Len(uint(g.N())))
	led.Charge("knowledge/face-ids", logn*int64(t.Root.TreeDepth+2))
	for lvl := 0; lvl < t.Depth; lvl++ {
		led.Charge("knowledge/algorithm1-level", 2*int64(levelCost[lvl]))
	}
	// Sort chains root-to-leaf (bags were appended in creation order, which
	// is already level order).
	return k
}

// Verify asserts the distributed-knowledge invariants against the central
// decomposition: Lemma 5.5 (one bag per level per dart, reversal-on-hole
// implication) and Properties 13/14. Returns the first violation.
func (k *Knowledge) Verify() error {
	g := k.T.G
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		chain := k.BagChain[d]
		if len(chain) == 0 {
			return fmt.Errorf("bdd: dart %d in no bag", d)
		}
		if k.T.Bags[chain[0]].ID != k.T.Root.ID {
			return fmt.Errorf("bdd: dart %d chain does not start at root", d)
		}
		prevLevel := -1
		for _, id := range chain {
			b := k.T.Bags[id]
			if b.Level != prevLevel+1 {
				return fmt.Errorf("bdd: dart %d skips level %d", d, prevLevel+1)
			}
			prevLevel = b.Level
			if !b.Has(d) {
				return fmt.Errorf("bdd: dart %d chain lists bag %d that lacks it", d, id)
			}
		}
	}
	for _, b := range k.T.Bags {
		for e, has := range k.HasDual[b.ID] {
			want := b.Has(planar.ForwardDart(e)) && b.Has(planar.BackwardDart(e))
			if has != want {
				return fmt.Errorf("bdd: bag %d edge %d dual-existence mismatch", b.ID, e)
			}
			if !has && b.HasEdge(e) {
				// Lemma 5.5: the missing dart lies on an ancestor hole, so
				// the edge must appear on some ancestor separator.
				missing := planar.ForwardDart(e)
				if b.Has(missing) {
					missing = planar.BackwardDart(e)
				}
				onAncestorSep := false
				for a := b.Parent; a != nil; a = a.Parent {
					for _, se := range a.SXEdges {
						if se == e {
							onAncestorSep = true
						}
					}
				}
				if !onAncestorSep {
					return fmt.Errorf("bdd: bag %d edge %d half-present without ancestor separator", b.ID, e)
				}
			}
		}
		// At most one critical (whole) face per bag — Lemma 5.3.
		if c := k.Critical[b.ID]; c >= 0 {
			if !b.IsWhole(c) {
				return fmt.Errorf("bdd: bag %d critical face %d is not whole", b.ID, c)
			}
			if b.Sep != nil && b.Sep.EX.Real {
				return fmt.Errorf("bdd: bag %d has a critical face despite real e_X", b.ID)
			}
		}
	}
	return nil
}
