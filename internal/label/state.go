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
// never stored), the negative-cycle flag, and the per-bag state in bag-ID
// order. Of each label the codec fills the vectors — To and From, or
// LeafTo, in Layouts order; identity, positions and Child links are the
// layout's and are set here. It is the snapshot codec's inverse of State;
// the result is indistinguishable from one produced by Compute.
func FromState(v View, t *bdd.BDD, lengths []int64, negCycle bool, byBag [][]Label, ddgs []*BagDDG) (*Labeling, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	if len(byBag) != len(t.Bags) {
		return nil, fmt.Errorf("label: state spans %d bags, tree has %d", len(byBag), len(t.Bags))
	}
	// Children have larger IDs than their parents, so in reverse ID order a
	// Child link lands in a slab already checked.
	for id := len(t.Bags) - 1; id >= 0; id-- {
		b, lay, labels := t.Bags[id], &pl.lay[id], byBag[id]
		if labels == nil {
			continue
		}
		if len(labels) != len(lay.Keys) {
			return nil, fmt.Errorf("label: bag %d holds %d labels for %d keys", id, len(labels), len(lay.Keys))
		}
		for i := range labels {
			l := &labels[i]
			l.Bag, l.Key, l.pos, l.sep = b, lay.Keys[i], int32(i), -1
			if b.IsLeaf() {
				if len(l.LeafTo) != len(lay.Keys) || l.To != nil || l.From != nil {
					return nil, fmt.Errorf("label: bag %d key %d: not a leaf label of the bag's layout", id, l.Key)
				}
				continue
			}
			if len(l.To) != len(lay.Sep) || len(l.From) != len(lay.Sep) || l.LeafTo != nil {
				return nil, fmt.Errorf("label: bag %d key %d: not a label of the bag's layout", id, l.Key)
			}
			if l.sep = lay.SepPos[i]; l.sep < 0 {
				child := byBag[b.Children[lay.ChildOf[i]].ID]
				if child == nil {
					return nil, fmt.Errorf("label: bag %d is labelled, its child is not", id)
				}
				l.Child = &child[lay.ChildPos[i]]
			}
		}
	}
	return &Labeling{T: t, Lengths: lengths, NegCycle: negCycle, pl: pl,
		byBag: byBag, slot: make([][]int32, len(byBag)), ddgs: ddgs}, nil
}
