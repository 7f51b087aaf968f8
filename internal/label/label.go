// Package label implements the paper's distance labelings over the Bounded
// Diameter Decomposition: the dual labeling of §5 (Lemma 5.16/5.17) and the
// primal labeling of Li–Parter [27] it mirrors. Every key (a face, or a
// vertex) of every bag receives an Õ(D)-bit label such that the distance
// between any two keys of a bag decodes from their labels alone, negative
// lengths supported and negative cycles detected. The root bag's labels
// answer distances in the whole graph: dual SSSP (Lemma 2.2) and max st-flow
// (Thm 1.2) read the dual labeling, the distance oracle, directed girth and
// min st-cut's residual SSSP (Thm 6.1) the primal one.
//
// Both labelings are one bottom-up pass (plan.label) over one tree, seen
// through a view. A view lays the length-independent plan of each bag out
// over the tree and fixes what the pass is charged; nothing below newPlan
// knows which view it serves. The view contract:
//
//	               Dual (§5.2–5.3)                Primal ([27])
//	keys           b.Faces                        the bag's vertices, dart order
//	separator      b.FX                           vertices of both children
//	child of key   the child whose keys hold it   the same
//	cross arcs     both darts of b.DualSXEdges    none
//	leaf arcs      b.DualArcs                     both darts of every EdgeIn edge
//	arc of dart d  FaceOf(d) -> FaceOf(Rev(d))    Tail(d) -> Head(d)
//	phase          label/…, dual-sssp/…           primal-label/…, primal-sssp/…
//	congestion     ×4 (×2 property 7, ×2 Ĝ)       ×2 (property 7)
//	retains DDGs   yes (global min cut, snapshot) no
//	SSSP marks     a shortest-path tree           distances only
//
// The view is fixed by the caller's problem — a distance between vertices
// is primal, one between faces dual — and travels with the Labeling.
//
// Lengths are per-dart: dart d contributes its view's arc with length
// lengths[d] (spath.Inf deactivates the arc), so directed and residual
// graphs are expressed directly.
//
// From-only invariant: the source-directed drive (SSSPFrom) gives the keys
// outside its wanted sets From-only labels — From/LeafFrom and Child, no To
// half. Such a label may only be the second argument of Decode and never
// has Words() taken, so a half-labelled Labeling never leaves this package.
package label

import (
	"planarflow/internal/bdd"
	"planarflow/internal/spath"
)

// Label is the distance label of one key (a face in the dual view, a
// vertex in the primal) within one bag (§5.2).
type Label struct {
	Bag *bdd.Bag
	Key int

	// To[k] = dist(Key -> k) and From[k] = dist(k -> Key) in the bag, for
	// every separator key k (non-leaf bags).
	To, From map[int]int64

	// Child is the recursive label in the unique child bag wholly containing
	// Key (nil for separator keys and leaves).
	Child *Label

	// Leaf labels store distances to/from every key of the leaf bag.
	LeafTo, LeafFrom map[int]int64
}

// Words returns the label size in O(log n)-bit words (an ID plus a distance
// per entry, per level), the quantity Lemma 5.17 bounds by Õ(D).
func (l *Label) Words() int {
	w := 2 // bag ID + key
	if l.LeafTo != nil {
		w += 2 * len(l.LeafTo)
	}
	w += 2 * (len(l.To) + len(l.From))
	if l.Child != nil {
		w += l.Child.Words()
	}
	return w
}

// Decode returns dist(a.Key -> b.Key) in the bag both labels belong to
// (Lemma 5.16). Returns spath.Inf when unreachable.
func Decode(a, b *Label) int64 {
	if a.Key == b.Key {
		return 0
	}
	if a.LeafTo != nil {
		if d, ok := a.LeafTo[b.Key]; ok {
			return d
		}
		return spath.Inf
	}
	// If either key is in the separator the distance is stored directly (the
	// key set of To/From is exactly the separator).
	if d, ok := a.To[b.Key]; ok {
		return d
	}
	if d, ok := b.From[a.Key]; ok {
		return d
	}
	best := spath.Inf
	for k, da := range a.To {
		if db, ok := b.From[k]; ok && da < spath.Inf && db < spath.Inf {
			if da+db < best {
				best = da + db
			}
		}
	}
	if a.Child != nil && b.Child != nil && a.Child.Bag == b.Child.Bag {
		if d := Decode(a.Child, b.Child); d < best {
			best = d
		}
	}
	return best
}
