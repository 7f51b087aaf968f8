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
//	leaf arcs      b.DualArcs                     both darts of every bag edge
//	arc of dart d  FaceOf(d) -> FaceOf(Rev(d))    Tail(d) -> Head(d)
//	phase          label/…, dual-sssp/…           primal-label/…, primal-sssp/…
//	congestion     ×4 (×2 property 7, ×2 Ĝ)       ×2 (property 7)
//	retains DDGs   full labelings (min cut, snap) no
//	SSSP marks     a shortest-path tree           distances only
//
// The view is fixed by the caller's problem — a distance between vertices
// is primal, one between faces dual — and travels with the Labeling.
//
// Lengths are per-dart: dart d contributes its view's arc with length
// lengths[d] (spath.Inf deactivates the arc), so directed and residual
// graphs are expressed directly.
//
// Layout invariant: a label holds one distance vector, a []int64 in the
// order the bag's plan fixes (BagLayout) — in a non-leaf bag To‖From, the
// two halves over the separator in Sep order; in a leaf LeafTo over the
// leaf's keys in Keys order — and a bag's labels sit in one slab in Keys
// order, their vectors cut in the same order from one more. A label carries
// its own two positions (pos among the keys, sep in the separator or -1), so
// Decode indexes the other label's vector with them and never hashes or
// consults the plan. Who may index what: Decode and the pass index vectors
// through a Label's positions; the snapshot codec through Layouts, whose
// argsorts turn the layout into the sorted lists version 1 stores;
// core.DirectedGirth reads Separator(b), the same order; nothing else
// indexes a vector. Computed and restored labelings share the plan's layout,
// so they are equal position for position.
//
// Kernel contract: a bag's local computation is one kernel (kernel.go) —
// Johnson's algorithm over a CSR digraph. Its potentials pass is the bag's
// negative-cycle verdict; its rows are exact, equal to per-source
// Bellman–Ford's, and a leaf row is written straight into the slab where it
// is the source's LeafTo. The kernel's buffers belong to the pass that runs
// it and are dropped with it — never to the Labeling the pass returns — and
// never alias the skeleton arrays, which concurrent passes over one tree
// read. Three callers run a kernel of their own the same way: MinCycles
// (cycle.go), the cycle enumeration of global min cut and directed girth,
// over the leaf skeletons and retained DDGs of a published labeling;
// Feasible, over the view's whole graph, for the negative-cycle verdict of
// exact max-flow's probes; and SSSPFrom, over the same graph, for the one
// row a source-directed SSSP reads. Both execute that run and charge the
// labeling pass entry for entry (probe.go): a completed pass from the
// plan's per-bag costs and the active darts, an aborted one at the bag
// whose own graph first closes a negative cycle. Every skeleton they load,
// the whole graph and each bag's own graph, is the plan's: derived once per
// tree and view on first need and, like the rest of the plan, charged to no
// estimate. SSSPFrom's answer is the full labeling's because shortest
// distances are unique and the kernel's rows are exact.
//
// LeafFrom, the distances from every leaf key to a label's own, is not
// stored: nothing decodes it, and it is column pos of the bag's LeafTo rows.
// The snapshot format still carries it — the encoder writes the column, the
// decoder checks it against the rows and drops it.
package label

import "planarflow/internal/spath"

// Label is the distance label of one key (a face in the dual view, a
// vertex in the primal) within one bag (§5.2): one distance vector and four
// words of identity, the Õ(D)-word label of Lemma 5.17.
type Label struct {
	// Child is the recursive label in the unique child bag wholly containing
	// the key (nil for separator keys and leaves).
	Child *Label

	// vec is the label's one distance vector: To‖From in a non-leaf bag,
	// LeafTo in a leaf, cut from the bag's slab.
	vec []int64

	// bag is the bag's ID and key the label's key. pos is the key's position
	// among the bag's keys, sep its position in the bag's separator (-1
	// outside it, and in a leaf): where other labels of the bag hold the
	// distances to and from the key.
	bag, key, pos, sep int32
}

// leaf reports whether l is a leaf bag's label: only there is a key neither
// in the separator nor in a child.
func (l *Label) leaf() bool { return l.sep < 0 && l.Child == nil }

// To returns dist(key -> k) for k the i-th separator key of the bag's
// layout, the first half of the vector (nil in a leaf).
func (l *Label) To() []int64 {
	if l.leaf() {
		return nil
	}
	n := len(l.vec) / 2
	return l.vec[:n:n]
}

// From returns dist(k -> key) for k the i-th separator key of the bag's
// layout, the second half of the vector (nil in a leaf).
func (l *Label) From() []int64 {
	if l.leaf() {
		return nil
	}
	return l.vec[len(l.vec)/2:]
}

// LeafTo returns dist(key -> k) for k the i-th key of the leaf bag's layout
// (nil outside a leaf).
func (l *Label) LeafTo() []int64 {
	if !l.leaf() {
		return nil
	}
	return l.vec
}

// Words returns the label size in O(log n)-bit words (an ID plus a distance
// per entry, per level), the quantity Lemma 5.17 bounds by Õ(D).
func (l *Label) Words() int {
	w := 2 + 2*len(l.vec) // bag ID + key, then the entries
	if l.Child != nil {
		w += l.Child.Words()
	}
	return w
}

// Decode returns dist(a.key -> b.key) in the bag both labels belong to
// (Lemma 5.16). Returns spath.Inf when unreachable.
func Decode(a, b *Label) int64 {
	if a.pos == b.pos {
		return 0
	}
	if a.leaf() {
		return a.vec[b.pos]
	}
	// If either key is in the separator the distance is stored directly.
	ns := len(a.vec) / 2
	to, from := a.vec[:ns], b.vec[ns:2*ns]
	if b.sep >= 0 {
		return to[b.sep]
	}
	if a.sep >= 0 {
		return from[a.sep]
	}
	best := spath.Inf
	for i, da := range to {
		if db := from[i]; da < spath.Inf && db < spath.Inf && da+db < best {
			best = da + db
		}
	}
	if a.Child.bag == b.Child.bag {
		if d := Decode(a.Child, b.Child); d < best {
			best = d
		}
	}
	return best
}
