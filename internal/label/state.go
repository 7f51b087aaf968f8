package label

import (
	"fmt"

	"planarflow/internal/bdd"
)

// Layouts returns, by bag ID, the layout the labels of view v over t are
// stored in — for the snapshot codec, which writes vectors as sorted lists
// and reads them back into position. The error reports a tree that is not
// a decomposition bdd.Build could have produced (a snapshot's tree section
// that decoded but does not hang together); no labeling exists over it.
func Layouts(v View, t *bdd.BDD) ([]BagLayout, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	return pl.lay, nil
}

// State exposes the labeling's internals — per bag, the labels of all its
// keys in layout order (nil for a bag a negative cycle kept the pass from
// reaching), and the retained base DDGs (nil when the view retains none),
// both indexed by bag ID — for the snapshot codec. The returned slices are
// the live state, not copies; callers must treat them as read-only (a
// published labeling is immutable).
func (la *Labeling) State() (byBag [][]Label, ddgs []*BagDDG) {
	return la.byBag, la.ddgs
}

// FromState reassembles a Labeling from codec-decoded parts: its view, the
// tree it decodes over, the per-dart lengths (rederived from the graph,
// never stored), the negative-cycle flag, and per bag, in bag-ID order, the
// slab of its labels' vectors (nil for a bag without labels). A slab holds
// one vector per key in Layouts order — To‖From over the separator, or
// LeafTo over the leaf's keys — and FromState cuts the labels from it: their
// identity, positions and Child links are the layout's. It is the snapshot
// codec's inverse of State; the result is indistinguishable from one
// produced by Compute.
func FromState(v View, t *bdd.BDD, lengths []int64, negCycle bool, vecs [][]int64, ddgs []*BagDDG) (*Labeling, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	if len(vecs) != len(t.Bags) {
		return nil, fmt.Errorf("label: state spans %d bags, tree has %d", len(vecs), len(t.Bags))
	}
	byBag := make([][]Label, len(t.Bags))
	// Children have larger IDs than their parents, so in reverse ID order a
	// Child link lands in a slab already cut.
	for id := len(t.Bags) - 1; id >= 0; id-- {
		b, lay, slab := t.Bags[id], &pl.lay[id], vecs[id]
		if slab == nil {
			continue
		}
		n, width := len(lay.Keys), 2*len(lay.Sep)
		if b.IsLeaf() {
			width = n
		}
		if len(slab) != n*width {
			return nil, fmt.Errorf("label: bag %d: %d vector entries for %d keys of width %d", id, len(slab), n, width)
		}
		labels := make([]Label, n)
		for i := range labels {
			l := &labels[i]
			*l = Label{vec: slab[i*width : (i+1)*width : (i+1)*width], bag: int32(id), key: int32(lay.Keys[i]), pos: int32(i), sep: -1}
			if b.IsLeaf() {
				continue
			}
			if l.sep = lay.SepPos[i]; l.sep < 0 {
				child := byBag[b.Children[lay.ChildOf[i]].ID]
				if child == nil {
					return nil, fmt.Errorf("label: bag %d is labelled, its child is not", id)
				}
				l.Child = &child[lay.ChildPos[i]]
			}
		}
		byBag[id] = labels
	}
	return &Labeling{T: t, Lengths: lengths, NegCycle: negCycle, pl: pl,
		byBag: byBag, slot: make([][]int32, len(byBag)), ddgs: ddgs}, nil
}
