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
	"planarflow/internal/codec"
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
func encodeVec(e []byte, keys []int, order []int32, vec []int64) []byte {
	e = codec.AppendUvarint(e, uint64(len(order)))
	prev := 0
	for _, pos := range order {
		e = codec.AppendVarint(e, int64(keys[pos]-prev))
		prev = keys[pos]
		e = codec.AppendVarint(e, vec[pos])
	}
	return e
}

// decodeVec reads a sorted (key-delta, value) list into vec, which is laid
// out over keys (order is their argsort). The list must be exactly keys,
// ascending.
func decodeVec(d *codec.Reader, keys []int, order []int32, vec []int64) {
	if n := readCount(d); n != len(order) {
		d.Failf("vector of %d entries over a layout of %d", n, len(order))
		return
	}
	prev := int64(0)
	for j, pos := range order {
		dk := d.Varint()
		if j > 0 && dk <= 0 {
			d.Failf("vector keys not ascending")
			return
		}
		if prev += dk; prev != int64(keys[pos]) {
			d.Failf("vector key %d where the layout has %d", prev, keys[pos])
			return
		}
		vec[pos] = d.Varint()
	}
}

// treeFor resolves the tree a labeling section decodes over, nil when it
// did not arrive in the same snapshot (labelings always travel with their
// tree; Export guarantees it, Decode enforces it).
func treeFor(c *Contents, leafLimit int) *TreeEntry {
	for i := range c.Trees {
		if c.Trees[i].LeafLimit == leafLimit {
			return &c.Trees[i]
		}
	}
	return nil
}

func encodeLabeling(la *LabelEntry) ([]byte, error) {
	e := []byte{la.Kind}
	e = codec.AppendUvarint(e, uint64(la.LeafLimit))
	e = codec.AppendVarint(e, la.BuildRounds)
	e = codec.AppendBool(e, la.Labeling.NegCycle)
	lays, err := label.Layouts(la.Labeling.View(), la.Labeling.T)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %v", err)
	}
	byBag, ddgs := la.Labeling.State()
	e = codec.AppendUvarint(e, uint64(len(byBag)))
	var col []int64 // a leaf label's LeafFrom: its column of the bag's LeafTo rows
	for id, labels := range byBag {
		e = codec.AppendBool(e, labels != nil)
		if labels == nil {
			continue
		}
		lay := &lays[id]
		if len(labels) != len(lay.Keys) {
			return nil, fmt.Errorf("snapshot: encode: bag %d holds %d labels for %d keys", id, len(labels), len(lay.Keys))
		}
		b := la.Labeling.T.Bags[id]
		leaf := b.IsLeaf()
		if leaf && len(col) < len(labels) {
			col = make([]int64, len(labels))
		}
		e = codec.AppendUvarint(e, uint64(len(labels)))
		for _, pos := range lay.KeyOrder {
			l := &labels[pos]
			e = codec.AppendUvarint(e, uint64(lay.Keys[pos]))
			var flags byte
			if leaf {
				flags |= flagLeaf
			}
			if l.Child != nil {
				flags |= flagChild
			}
			e = append(e, flags)
			if l.Child != nil {
				e = codec.AppendUvarint(e, uint64(b.Children[lay.ChildOf[pos]].ID))
			}
			if leaf {
				e = encodeVec(e, lay.Keys, lay.KeyOrder, l.LeafTo())
				for j := range labels {
					col[j] = labels[j].LeafTo()[pos]
				}
				e = encodeVec(e, lay.Keys, lay.KeyOrder, col)
			} else {
				e = encodeVec(e, lay.Sep, lay.SepOrder, l.To())
				e = encodeVec(e, lay.Sep, lay.SepOrder, l.From())
			}
		}
	}
	// The DDG block exists only in the section of a view that retains DDGs.
	for _, ddg := range ddgs {
		e = codec.AppendBool(e, ddg != nil)
		if ddg == nil {
			continue
		}
		e = codec.AppendUvarint(e, uint64(len(ddg.Nodes)))
		for _, n := range ddg.Nodes {
			e = append(e, byte(n.Child))
			e = codec.AppendUvarint(e, uint64(n.Key))
		}
		e = codec.AppendUvarint(e, uint64(len(ddg.Arcs)))
		for _, a := range ddg.Arcs {
			e = codec.AppendUvarint(e, uint64(a.From))
			e = codec.AppendUvarint(e, uint64(a.To))
			e = codec.AppendVarint(e, a.Len)
			e = codec.AppendVarint(e, int64(a.Dart))
		}
		for _, row := range ddg.Dist {
			if len(row) != len(ddg.Nodes) {
				return nil, fmt.Errorf("snapshot: encode: ragged DDG distance matrix")
			}
			for _, v := range row {
				e = codec.AppendVarint(e, v)
			}
		}
	}
	return e, nil
}

func decodeLabeling(d *codec.Reader, v label.View, g *planar.Graph, c *Contents, lengths LengthsFunc) (*LabelEntry, error) {
	kind, leafLimit, buildRounds, negCycle := d.U8(), int(d.Uvarint()), d.Varint(), d.Bool()
	te := treeFor(c, leafLimit)
	if te == nil {
		return nil, d.Failf("labeling references missing tree (leaf limit %d)", leafLimit)
	}
	t := te.Tree
	for _, prev := range c.Labels {
		if prev.Labeling.View() == v && prev.Kind == kind && prev.LeafLimit == leafLimit {
			return nil, d.Failf("duplicate %s-labeling section", v)
		}
	}
	lays, err := label.Layouts(v, t)
	if err != nil {
		return nil, d.Failf("%v", err)
	}
	vecs := decodeBags(d, t, lays)
	var ddgs []*label.BagDDG
	if v == label.Dual {
		ddgs = decodeDDGs(d, t, lays, g.NumDarts())
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	lens, err := lengths(kind)
	if err != nil {
		return nil, err
	}
	la, err := label.FromState(v, t, lens, negCycle, vecs, ddgs)
	if err != nil {
		return nil, d.Failf("%v", err)
	}
	return &LabelEntry{Kind: kind, LeafLimit: leafLimit, BuildRounds: buildRounds, Labeling: la}, nil
}

// decodeBags reads the per-bag label layout: a presence flag per bag, then
// the bag's labels in ascending key order, each label's vector placed at
// its key's position in the bag's slab (To‖From, or LeafTo, per key in
// layout order). The result is the slabs, indexed by bag; nil entries mean
// the bag had no labels (a labeling aborted by a negative cycle). Identity,
// positions and Child links are the layout's — what the section says of
// them is checked against it here, and label.FromState cuts the labels. A
// failure is left on d.
func decodeBags(d *codec.Reader, t *bdd.BDD, lays []label.BagLayout) [][]int64 {
	numBags := len(t.Bags)
	if nb := readCount(d); nb != numBags {
		d.Failf("labeling spans %d bags, tree has %d", nb, numBags)
		return nil
	}
	byBag := make([][]int64, numBags)
	var col []int64 // a leaf's LeafFrom lists, to hold against its LeafTo rows
	for i, b := range t.Bags {
		if !d.Bool() {
			continue
		}
		lay := &lays[i]
		n := readCount(d)
		if n != len(lay.Keys) {
			d.Failf("bag %d holds %d labels for %d keys", i, n, len(lay.Keys))
			return nil
		}
		leaf := b.IsLeaf()
		// A label's vector is its To‖From lists, or a leaf's LeafTo (its
		// LeafFrom list is read into col beside it).
		width, entries := 2*len(lay.Sep), 2*len(lay.Sep)
		if leaf {
			width, entries = n, 2*n
		}
		// Key, flags and two counts, then two bytes per list entry: what
		// the slab below holds has to be in the bytes still unread.
		if n*(4+2*entries) > d.Remaining() {
			d.Failf("bag %d: %d labels of width %d in %d remaining bytes", i, n, width, d.Remaining())
			return nil
		}
		vecs := make([]int64, n*width)
		if leaf && len(col) < n*n {
			col = make([]int64, n*n)
		}
		for _, pos := range lay.KeyOrder {
			vec := vecs[int(pos)*width : (int(pos)+1)*width]
			key := d.Uvarint()
			if key != uint64(lay.Keys[pos]) {
				d.Failf("bag %d: label key %d where the bag's next key is %d", i, key, lay.Keys[pos])
				return nil
			}
			flags := d.U8()
			if flags&^(flagLeaf|flagChild) != 0 {
				d.Failf("label flags %#x", flags)
				return nil
			}
			if (flags&flagLeaf != 0) != leaf {
				d.Failf("bag %d key %d: leaf flag %v in a bag with %d children", i, key, !leaf, len(b.Children))
				return nil
			}
			hasChild := !leaf && lay.SepPos[pos] < 0
			if (flags&flagChild != 0) != hasChild {
				d.Failf("bag %d key %d: child flag %v contradicts the separator", i, key, !hasChild)
				return nil
			}
			if hasChild {
				if childBag, want := d.Uvarint(), b.Children[lay.ChildOf[pos]].ID; childBag != uint64(want) {
					d.Failf("bag %d key %d: child bag %d, the key is in bag %d", i, key, childBag, want)
					return nil
				}
			}
			if leaf {
				decodeVec(d, lay.Keys, lay.KeyOrder, vec)
				decodeVec(d, lay.Keys, lay.KeyOrder, col[int(pos)*n:(int(pos)+1)*n])
				continue
			}
			decodeVec(d, lay.Sep, lay.SepOrder, vec[:width/2])
			decodeVec(d, lay.Sep, lay.SepOrder, vec[width/2:])
		}
		if leaf {
			for r := 0; r < n; r++ {
				for c, v := range vecs[r*n : (r+1)*n] {
					if col[c*n+r] != v {
						d.Failf("bag %d: LeafFrom of key %d is not the column of the bag's LeafTo rows", i, lay.Keys[c])
						return nil
					}
				}
			}
		}
		byBag[i] = vecs
	}
	return byBag
}

// decodeDDGs reads the retained base DDGs, one presence flag per bag. The
// node list must be the layout's, whose Nodes and RepsOf the restored DDG
// shares with every other labeling over the tree. A failure is left on d.
func decodeDDGs(d *codec.Reader, t *bdd.BDD, lays []label.BagLayout, numDarts int) []*label.BagDDG {
	ddgs := make([]*label.BagDDG, len(t.Bags))
	for i, b := range t.Bags {
		if !d.Bool() {
			continue
		}
		lay := &lays[i]
		nn := readCount(d)
		if b.IsLeaf() || nn != len(lay.Nodes) {
			d.Failf("bag %d: DDG of %d nodes, the tree gives it %d", i, nn, len(lay.Nodes))
			return nil
		}
		for _, n := range lay.Nodes {
			if ci, k := d.U8(), d.Uvarint(); int(ci) != n.Child || k != uint64(n.Key) {
				d.Failf("bag %d: DDG node (%d,%d) where the tree has (%d,%d)", i, ci, k, n.Child, n.Key)
				return nil
			}
		}
		ddg := &label.BagDDG{Bag: b, Nodes: lay.Nodes, RepsOf: lay.RepsOf}
		ddg.Arcs = make([]label.DDGArc, readCount(d))
		for j := range ddg.Arcs {
			a := &ddg.Arcs[j]
			a.From, a.To, a.Len = int32(d.ID(nn)), int32(d.ID(nn)), d.Varint()
			dart := d.Varint()
			if dart < -1 || dart >= int64(numDarts) {
				d.Failf("DDG arc dart %d", dart)
				return nil
			}
			a.Dart = int32(dart)
		}
		if nn*nn > d.Remaining() {
			d.Failf("bag %d: %d×%d DDG matrix in %d remaining bytes", i, nn, nn, d.Remaining())
			return nil
		}
		slab := make([]int64, nn*nn)
		for j := range slab {
			slab[j] = d.Varint()
		}
		ddg.Dist = make([][]int64, nn)
		for r := range ddg.Dist {
			ddg.Dist[r] = slab[r*nn : (r+1)*nn : (r+1)*nn]
		}
		ddgs[i] = ddg
	}
	return ddgs
}
