package snapshot

// Distance-labeling codec (section types 2 and 3: one body, the type byte
// names the labeling's view). A labeling is stored per bag as its
// key→label map in sorted key order; each label carries its distance maps
// and a reference to its child label (the same key in the unique child bag
// wholly containing it), re-linked after all bags decode. A view that
// retains its base DDGs (type 2, dual) additionally carries them — nodes,
// arcs and the all-pairs matrix — whose index maps rebuild from the node
// list. Lengths vectors are never stored: they derive from the
// fingerprint-checked graph and the length kind, so the caller supplies
// them through LengthsFunc.

import (
	"fmt"
	"sort"

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

// encodeDistMap writes a key→distance map in sorted key order.
func encodeDistMap(e *enc, m map[int]int64) {
	e.count(len(m))
	prev := 0
	for _, k := range sortedKeys(m) {
		e.varint(int64(k - prev))
		prev = k
		e.varint(m[k])
	}
}

func decodeDistMap(d *dec, limit int) (map[int]int64, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	m := make(map[int]int64, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		dk, err := d.varint()
		if err != nil {
			return nil, err
		}
		prev += dk
		if prev < 0 || prev >= int64(limit) {
			return nil, fmt.Errorf("%w: map key %d out of [0,%d)", ErrCorrupt, prev, limit)
		}
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		m[int(prev)] = v
	}
	return m, nil
}

// sortedKeys returns the map's keys ascending (deterministic encode order).
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
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
	byBag, ddgs := la.Labeling.State()
	e.count(len(byBag))
	for _, labels := range byBag {
		e.bool(labels != nil)
		if labels == nil {
			continue
		}
		e.count(len(labels))
		for _, k := range sortedKeys(labels) {
			l := labels[k]
			e.id(k)
			var flags byte
			if l.LeafTo != nil {
				flags |= flagLeaf
			}
			if l.Child != nil {
				flags |= flagChild
			}
			e.byte(flags)
			if l.Child != nil {
				e.id(l.Child.Bag.ID)
			}
			if l.LeafTo != nil {
				encodeDistMap(e, l.LeafTo)
				encodeDistMap(e, l.LeafFrom)
			} else {
				encodeDistMap(e, l.To)
				encodeDistMap(e, l.From)
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
	keyLimit := g.Faces().NumFaces()
	if v == label.Primal {
		keyLimit = g.N()
	}
	labels, err := decodeBags(d, t, keyLimit)
	if err != nil {
		return nil, err
	}
	var ddgs []*label.BagDDG
	if v == label.Dual {
		if ddgs, err = decodeDDGs(d, t, keyLimit, g.NumDarts()); err != nil {
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
	return &LabelEntry{
		Kind: kind, LeafLimit: int(leafLimit), BuildRounds: buildRounds,
		Labeling: label.FromState(v, t, lens, negCycle, labels, ddgs),
	}, nil
}

// decodeBags reads the per-bag label-map layout: a presence flag per bag,
// then the sorted key→label entries, straight into the labels the labeling
// will hold. The result is indexed by bag; nil entries mean the bag had no
// labels (a labeling aborted by a negative cycle). Child labels are
// re-linked once every bag's map exists.
func decodeBags(d *dec, t *bdd.BDD, keyLimit int) ([]map[int]*label.Label, error) {
	numBags := len(t.Bags)
	nb, err := d.count()
	if err != nil {
		return nil, err
	}
	if nb != numBags {
		return nil, fmt.Errorf("%w: labeling spans %d bags, tree has %d", ErrCorrupt, nb, numBags)
	}
	type link struct {
		l        *label.Label
		childBag int
	}
	var links []link
	labels := make([]map[int]*label.Label, numBags)
	for i := 0; i < numBags; i++ {
		p, err := d.bool()
		if err != nil {
			return nil, err
		}
		if !p {
			continue
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		m := make(map[int]*label.Label, n)
		for j := 0; j < n; j++ {
			key, err := d.id(keyLimit)
			if err != nil {
				return nil, err
			}
			if m[key] != nil {
				return nil, fmt.Errorf("%w: duplicate label key %d in bag %d", ErrCorrupt, key, i)
			}
			flags, err := d.byte()
			if err != nil {
				return nil, err
			}
			if flags&^(flagLeaf|flagChild) != 0 || flags == flagLeaf|flagChild {
				return nil, fmt.Errorf("%w: label flags %#x", ErrCorrupt, flags)
			}
			l := &label.Label{Bag: t.Bags[i], Key: key}
			if flags&flagChild != 0 {
				childBag, err := d.id(numBags)
				if err != nil {
					return nil, err
				}
				if !childOf(t.Bags[i], childBag) {
					return nil, fmt.Errorf("%w: label child bag %d not a child of bag %d", ErrCorrupt, childBag, i)
				}
				links = append(links, link{l, childBag})
			}
			to, err := decodeDistMap(d, keyLimit)
			if err != nil {
				return nil, err
			}
			from, err := decodeDistMap(d, keyLimit)
			if err != nil {
				return nil, err
			}
			if flags&flagLeaf != 0 {
				l.LeafTo, l.LeafFrom = to, from
			} else {
				l.To, l.From = to, from
			}
			m[key] = l
		}
		labels[i] = m
	}
	for _, ln := range links {
		child := labels[ln.childBag][ln.l.Key]
		if child == nil {
			return nil, fmt.Errorf("%w: label %d/%d references missing child label", ErrCorrupt, ln.l.Bag.ID, ln.l.Key)
		}
		ln.l.Child = child
	}
	return labels, nil
}

// decodeDDGs reads the retained base DDGs, one presence flag per bag.
func decodeDDGs(d *dec, t *bdd.BDD, keyLimit, numDarts int) ([]*label.BagDDG, error) {
	ddgs := make([]*label.BagDDG, len(t.Bags))
	for i := range t.Bags {
		present, err := d.bool()
		if err != nil {
			return nil, err
		}
		if !present {
			continue
		}
		ddg := &label.BagDDG{
			Bag:    t.Bags[i],
			Index:  make(map[label.DDGNode]int),
			RepsOf: make(map[int][]int),
		}
		nn, err := d.count()
		if err != nil {
			return nil, err
		}
		for j := 0; j < nn; j++ {
			ci, err := d.byte()
			if err != nil {
				return nil, err
			}
			if ci > 1 {
				return nil, fmt.Errorf("%w: DDG node child %d", ErrCorrupt, ci)
			}
			k, err := d.id(keyLimit)
			if err != nil {
				return nil, err
			}
			n := label.DDGNode{Child: int(ci), Key: k}
			if _, dup := ddg.Index[n]; dup {
				return nil, fmt.Errorf("%w: duplicate DDG node", ErrCorrupt)
			}
			ddg.Index[n] = j
			ddg.RepsOf[k] = append(ddg.RepsOf[k], j)
			ddg.Nodes = append(ddg.Nodes, n)
		}
		na, err := d.count()
		if err != nil {
			return nil, err
		}
		ddg.Arcs = make([]label.DDGArc, 0, na)
		for j := 0; j < na; j++ {
			var a label.DDGArc
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
			ddg.Arcs = append(ddg.Arcs, a)
		}
		ddg.Dist = make([][]int64, nn)
		for r := 0; r < nn; r++ {
			row := make([]int64, nn)
			for cIdx := 0; cIdx < nn; cIdx++ {
				if row[cIdx], err = d.varint(); err != nil {
					return nil, err
				}
			}
			ddg.Dist[r] = row
		}
		ddgs[i] = ddg
	}
	return ddgs, nil
}

// childOf reports whether childID is one of b's children.
func childOf(b *bdd.Bag, childID int) bool {
	for _, c := range b.Children {
		if c.ID == childID {
			return true
		}
	}
	return false
}
