package label

import "planarflow/internal/bdd"

// State exposes the labeling's internals — the per-bag key→label maps and
// the retained base DDGs (nil when the view retains none), both indexed by
// bag ID — for the snapshot codec. The returned slices are the live state,
// not copies; callers must treat them as read-only (a published labeling is
// immutable).
func (la *Labeling) State() (byBag []map[int]*Label, ddgs []*BagDDG) {
	return la.byBag, la.ddgs
}

// FromState reassembles a Labeling from codec-decoded parts: its view, the
// tree it decodes over, the per-dart lengths (rederived from the graph,
// never stored), the negative-cycle flag, and the per-bag state in bag-ID
// order. It is the snapshot codec's inverse of State; the result is
// indistinguishable from one produced by Compute.
func FromState(v View, t *bdd.BDD, lengths []int64, negCycle bool, byBag []map[int]*Label, ddgs []*BagDDG) *Labeling {
	return &Labeling{T: t, Lengths: lengths, NegCycle: negCycle, v: views[v], byBag: byBag, ddgs: ddgs}
}
