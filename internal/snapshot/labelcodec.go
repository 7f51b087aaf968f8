package snapshot

// Distance-labeling codec (section types 2 and 3: one body, the type byte
// names the labeling's view). On disk a labeling is, per bag, its labels in
// ascending key order; each label carries its two distance vectors as
// sorted (key-delta, value) lists — To and From over the bag's separator,
// or LeafTo and LeafFrom over the leaf's keys — and a reference to its
// child label (the same key in the unique child bag wholly containing it).
// A view that retains its base DDGs (type 2, dual) additionally carries
// them: nodes, arcs and the all-pairs matrix. In memory the same vectors are
// flat arrays in the order the tree's layout fixes (label.Layouts), so the
// encoder walks each bag through the layout's argsort and the decoder
// places values by position — and rejects whatever a vector over that
// layout cannot hold: a list that is not exactly the layout's keys
// ascending, a label that is not the bag's next key, flags or a child bag
// the layout contradicts, a LeafFrom that is not the column of the bag's
// LeafTo rows (memory keeps the rows alone), DDG nodes that are not the
// layout's. Lengths vectors are never stored: they derive from the
// fingerprint-checked graph and the length kind, so the caller supplies
// them through LengthsFunc.

import (
	"fmt"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/planar"
)

// LabelEntry is one labeling substrate: the labeling (which knows its
// view), its artifact key (length kind byte + leaf limit), and its original
// build cost.
type LabelEntry struct {
	Kind        byte
	LeafLimit   int
	BuildRounds int64
	Labeling    *label.Labeling
}

// label flag bits.
const (
	flagLeaf  = 1 // LeafTo/LeafFrom present (leaf-bag label)
	flagChild = 2 // label has a child in a child bag
)

// encodeVec writes a distance vector laid out over keys as the sorted
// (key-delta, value) list version 1 stores; order is keys' argsort.
func encodeVec(e *enc, keys []int, order []int32, vec []int64) {
	e.count(len(order))
	prev := 0
	for _, pos := range order {
		e.varint(int64(keys[pos] - prev))
		prev = keys[pos]
		e.varint(vec[pos])
	}
}

// decodeVec reads a sorted (key-delta, value) list into vec, which is laid
// out over keys (order is their argsort). The list must be exactly keys,
// ascending.
func decodeVec(d *dec, keys []int, order []int32, vec []int64) error {
	n, err := d.count()
	if err != nil {
		return err
	}
	if n != len(order) {
		return fmt.Errorf("%w: vector of %d entries over a layout of %d", ErrCorrupt, n, len(order))
	}
	prev := int64(0)
	for j, pos := range order {
		dk, err := d.varint()
		if err != nil {
			return err
		}
		if j > 0 && dk <= 0 {
			return fmt.Errorf("%w: vector keys not ascending", ErrCorrupt)
		}
		if prev += dk; prev != int64(keys[pos]) {
			return fmt.Errorf("%w: vector key %d where the layout has %d", ErrCorrupt, prev, keys[pos])
		}
		if vec[pos], err = d.varint(); err != nil {
			return err
		}
	}
	return nil
}

// treeFor resolves the tree a labeling section decodes over: it must
// have arrived in the same snapshot (labelings always travel with their
// tree; Export guarantees it, Decode enforces it).
func treeFor(c *Contents, leafLimit int) (*TreeEntry, error) {
	for i := range c.Trees {
		if c.Trees[i].LeafLimit == leafLimit {
			return &c.Trees[i], nil
		}
	}
	return nil, fmt.Errorf("%w: labeling references missing tree (leaf limit %d)", ErrCorrupt, leafLimit)
}

func encodeLabeling(e *enc, la *LabelEntry) error {
	e.byte(la.Kind)
	e.uvarint(uint64(la.LeafLimit))
	e.varint(la.BuildRounds)
	e.bool(la.Labeling.NegCycle)
	lays, err := label.Layouts(la.Labeling.View(), la.Labeling.T)
	if err != nil {
		return fmt.Errorf("snapshot: encode: %v", err)
	}
	byBag, ddgs := la.Labeling.State()
	e.count(len(byBag))
	var col []int64 // a leaf label's LeafFrom: its column of the bag's LeafTo rows
	for id, labels := range byBag {
		e.bool(labels != nil)
		if labels == nil {
			continue
		}
		lay := &lays[id]
		if len(labels) != len(lay.Keys) {
			return fmt.Errorf("snapshot: encode: bag %d holds %d labels for %d keys", id, len(labels), len(lay.Keys))
		}
		leaf := la.Labeling.T.Bags[id].IsLeaf()
		if leaf && len(col) < len(labels) {
			col = make([]int64, len(labels))
		}
		e.count(len(labels))
		for _, pos := range lay.KeyOrder {
			l := &labels[pos]
			e.id(l.Key)
			var flags byte
			if leaf {
				flags |= flagLeaf
			}
			if l.Child != nil {
				flags |= flagChild
			}
			e.byte(flags)
			if l.Child != nil {
				e.id(l.Child.Bag.ID)
			}
			if leaf {
				encodeVec(e, lay.Keys, lay.KeyOrder, l.LeafTo)
				for j := range labels {
					col[j] = labels[j].LeafTo[pos]
				}
				encodeVec(e, lay.Keys, lay.KeyOrder, col)
			} else {
				encodeVec(e, lay.Sep, lay.SepOrder, l.To)
				encodeVec(e, lay.Sep, lay.SepOrder, l.From)
			}
		}
	}
	// The DDG block exists only in the section of a view that retains DDGs.
	for _, ddg := range ddgs {
		e.bool(ddg != nil)
		if ddg == nil {
			continue
		}
		e.count(len(ddg.Nodes))
		for _, n := range ddg.Nodes {
			e.byte(byte(n.Child))
			e.id(n.Key)
		}
		e.count(len(ddg.Arcs))
		for _, a := range ddg.Arcs {
			e.id(a.From)
			e.id(a.To)
			e.varint(a.Len)
			e.varint(int64(a.Dart))
		}
		for _, row := range ddg.Dist {
			if len(row) != len(ddg.Nodes) {
				return fmt.Errorf("snapshot: encode: ragged DDG distance matrix")
			}
			for _, v := range row {
				e.varint(v)
			}
		}
	}
	return nil
}

func decodeLabeling(d *dec, v label.View, g *planar.Graph, c *Contents, lengths LengthsFunc) (*LabelEntry, error) {
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	leafLimit, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	buildRounds, err := d.varint()
	if err != nil {
		return nil, err
	}
	negCycle, err := d.bool()
	if err != nil {
		return nil, err
	}
	te, err := treeFor(c, int(leafLimit))
	if err != nil {
		return nil, err
	}
	t := te.Tree
	for _, prev := range c.Labels {
		if prev.Labeling.View() == v && prev.Kind == kind && prev.LeafLimit == int(leafLimit) {
			return nil, fmt.Errorf("%w: duplicate %s-labeling section", ErrCorrupt, v)
		}
	}
	lays, err := label.Layouts(v, t)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	labels, err := decodeBags(d, t, lays)
	if err != nil {
		return nil, err
	}
	var ddgs []*label.BagDDG
	if v == label.Dual {
		if ddgs, err = decodeDDGs(d, t, lays, g.NumDarts()); err != nil {
			return nil, err
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in %s section", ErrCorrupt, d.remaining(), v)
	}
	lens, err := lengths(kind)
	if err != nil {
		return nil, err
	}
	la, err := label.FromState(v, t, lens, negCycle, labels, ddgs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &LabelEntry{Kind: kind, LeafLimit: int(leafLimit), BuildRounds: buildRounds, Labeling: la}, nil
}

// decodeBags reads the per-bag label layout: a presence flag per bag, then
// the bag's labels in ascending key order, each placed at its key's
// position in the layout with its vectors cut from one slab per bag. The
// result is indexed by bag; nil entries mean the bag had no labels (a
// labeling aborted by a negative cycle). Identity, positions and Child
// links are the layout's — what the section says of them is checked
// against it here and set by label.FromState.
func decodeBags(d *dec, t *bdd.BDD, lays []label.BagLayout) ([][]label.Label, error) {
	numBags := len(t.Bags)
	nb, err := d.count()
	if err != nil {
		return nil, err
	}
	if nb != numBags {
		return nil, fmt.Errorf("%w: labeling spans %d bags, tree has %d", ErrCorrupt, nb, numBags)
	}
	byBag := make([][]label.Label, numBags)
	var col []int64 // a leaf's LeafFrom lists, to hold against its LeafTo rows
	for i, b := range t.Bags {
		p, err := d.bool()
		if err != nil {
			return nil, err
		}
		if !p {
			continue
		}
		lay := &lays[i]
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		if n != len(lay.Keys) {
			return nil, fmt.Errorf("%w: bag %d holds %d labels for %d keys", ErrCorrupt, i, n, len(lay.Keys))
		}
		leaf := b.IsLeaf()
		width := len(lay.Sep)
		if leaf {
			width = n
		}
		// Key, flags and two counts, then two bytes per vector entry: what
		// the slabs below hold has to be in the bytes still unread.
		if n*(4+4*width) > d.remaining() {
			return nil, fmt.Errorf("%w: bag %d: %d labels of width %d in %d remaining bytes", ErrCorrupt, i, n, width, d.remaining())
		}
		labels := make([]label.Label, n)
		var vecs []int64
		if leaf {
			vecs = make([]int64, n*n)
			if len(col) < n*n {
				col = make([]int64, n*n)
			}
		} else {
			vecs = make([]int64, 2*n*width)
		}
		for _, pos := range lay.KeyOrder {
			l := &labels[pos]
			key, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if key != uint64(lay.Keys[pos]) {
				return nil, fmt.Errorf("%w: bag %d: label key %d where the bag's next key is %d", ErrCorrupt, i, key, lay.Keys[pos])
			}
			flags, err := d.byte()
			if err != nil {
				return nil, err
			}
			if flags&^(flagLeaf|flagChild) != 0 {
				return nil, fmt.Errorf("%w: label flags %#x", ErrCorrupt, flags)
			}
			if (flags&flagLeaf != 0) != leaf {
				return nil, fmt.Errorf("%w: bag %d key %d: leaf flag %v in a bag with %d children", ErrCorrupt, i, key, !leaf, len(b.Children))
			}
			hasChild := !leaf && lay.SepPos[pos] < 0
			if (flags&flagChild != 0) != hasChild {
				return nil, fmt.Errorf("%w: bag %d key %d: child flag %v contradicts the separator", ErrCorrupt, i, key, !hasChild)
			}
			if hasChild {
				childBag, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				if want := b.Children[lay.ChildOf[pos]].ID; childBag != uint64(want) {
					return nil, fmt.Errorf("%w: bag %d key %d: child bag %d, the key is in bag %d", ErrCorrupt, i, key, childBag, want)
				}
			}
			if leaf {
				lo, hi := int(pos)*n, (int(pos)+1)*n
				l.LeafTo = vecs[lo:hi:hi]
				if err := decodeVec(d, lay.Keys, lay.KeyOrder, l.LeafTo); err != nil {
					return nil, err
				}
				if err := decodeVec(d, lay.Keys, lay.KeyOrder, col[lo:hi]); err != nil {
					return nil, err
				}
				continue
			}
			l.From, vecs = vecs[:width:width], vecs[width:]
			l.To, vecs = vecs[:width:width], vecs[width:]
			if err := decodeVec(d, lay.Sep, lay.SepOrder, l.To); err != nil {
				return nil, err
			}
			if err := decodeVec(d, lay.Sep, lay.SepOrder, l.From); err != nil {
				return nil, err
			}
		}
		if leaf {
			for r := range labels {
				for c, v := range labels[r].LeafTo {
					if col[c*n+r] != v {
						return nil, fmt.Errorf("%w: bag %d: LeafFrom of key %d is not the column of the bag's LeafTo rows", ErrCorrupt, i, lay.Keys[c])
					}
				}
			}
		}
		byBag[i] = labels
	}
	return byBag, nil
}

// decodeDDGs reads the retained base DDGs, one presence flag per bag. The
// node list must be the layout's, whose Nodes and RepsOf the restored DDG
// shares with every other labeling over the tree.
func decodeDDGs(d *dec, t *bdd.BDD, lays []label.BagLayout, numDarts int) ([]*label.BagDDG, error) {
	ddgs := make([]*label.BagDDG, len(t.Bags))
	for i, b := range t.Bags {
		present, err := d.bool()
		if err != nil {
			return nil, err
		}
		if !present {
			continue
		}
		lay := &lays[i]
		nn, err := d.count()
		if err != nil {
			return nil, err
		}
		if b.IsLeaf() || nn != len(lay.Nodes) {
			return nil, fmt.Errorf("%w: bag %d: DDG of %d nodes, the tree gives it %d", ErrCorrupt, i, nn, len(lay.Nodes))
		}
		for _, n := range lay.Nodes {
			ci, err := d.byte()
			if err != nil {
				return nil, err
			}
			k, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if int(ci) != n.Child || k != uint64(n.Key) {
				return nil, fmt.Errorf("%w: bag %d: DDG node (%d,%d) where the tree has (%d,%d)", ErrCorrupt, i, ci, k, n.Child, n.Key)
			}
		}
		ddg := &label.BagDDG{Bag: b, Nodes: lay.Nodes, RepsOf: lay.RepsOf}
		na, err := d.count()
		if err != nil {
			return nil, err
		}
		ddg.Arcs = make([]label.DDGArc, na)
		for j := range ddg.Arcs {
			a := &ddg.Arcs[j]
			if a.From, err = d.id(nn); err != nil {
				return nil, err
			}
			if a.To, err = d.id(nn); err != nil {
				return nil, err
			}
			if a.Len, err = d.varint(); err != nil {
				return nil, err
			}
			dart, err := d.varint()
			if err != nil {
				return nil, err
			}
			if dart < -1 || dart >= int64(numDarts) {
				return nil, fmt.Errorf("%w: DDG arc dart %d", ErrCorrupt, dart)
			}
			a.Dart = planar.Dart(dart)
		}
		if nn*nn > d.remaining() {
			return nil, fmt.Errorf("%w: bag %d: %d×%d DDG matrix in %d remaining bytes", ErrCorrupt, i, nn, nn, d.remaining())
		}
		slab := make([]int64, nn*nn)
		for j := range slab {
			if slab[j], err = d.varint(); err != nil {
				return nil, err
			}
		}
		ddg.Dist = make([][]int64, nn)
		for r := range ddg.Dist {
			ddg.Dist[r] = slab[r*nn : (r+1)*nn : (r+1)*nn]
		}
		ddgs[i] = ddg
	}
	return ddgs, nil
}
