package snapshot

// BDD tree codec (section type 1). A bag is stored as its identity
// (level, parent, children), its dart list, the measured tree depth, and
// the separator summary of non-leaf bags with its hole darts per side;
// what derives from those against the fingerprint-checked graph — dart
// membership, edge count, face tables, face-parts — is rebuilt at decode
// time by the builder's own bdd.Deriver, so a restored tree is the
// structure the builder produced.

import (
	"fmt"
	"math"
	"slices"

	"planarflow/internal/bdd"
	"planarflow/internal/codec"
	"planarflow/internal/planar"
	"planarflow/internal/separator"
)

// TreeEntry is one BDD substrate: the tree, its artifact key (leaf
// limit), and its original construction cost in simulated rounds.
type TreeEntry struct {
	LeafLimit   int
	BuildRounds int64
	Tree        *bdd.BDD
}

func encodeTree(t *TreeEntry) ([]byte, error) {
	tr := t.Tree
	for i, b := range tr.Bags {
		if b.ID != i {
			return nil, fmt.Errorf("snapshot: encode: bag %d stored at index %d", b.ID, i)
		}
	}
	e := codec.AppendUvarint(nil, uint64(t.LeafLimit))
	e = codec.AppendVarint(e, t.BuildRounds)
	e = codec.AppendUvarint(e, uint64(tr.Depth))
	e = codec.AppendUvarint(e, uint64(len(tr.Bags)))
	for _, b := range tr.Bags {
		e = codec.AppendUvarint(e, uint64(b.Level))
		parent := 0
		if b.Parent != nil {
			parent = b.Parent.ID + 1
		}
		e = codec.AppendUvarint(e, uint64(parent))
		e = codec.AppendUvarint(e, uint64(len(b.Children)))
		for _, c := range b.Children {
			e = codec.AppendUvarint(e, uint64(c.ID))
		}
		e = codec.AppendUvarint(e, uint64(b.TreeDepth))
		e = appendIDs(e, dartsToInts(b.Darts))
		e = appendIDs(e, b.SXEdges)
		e = appendIDs(e, b.DualSXEdges)
		e = appendIDs(e, b.FX)
		e = codec.AppendBool(e, b.Sep != nil)
		if b.Sep != nil {
			s := b.Sep
			e = codec.AppendBool(e, s.EX.Real)
			e = codec.AppendVarint(e, int64(s.EX.Edge))
			e = codec.AppendUvarint(e, uint64(s.EX.U))
			e = codec.AppendUvarint(e, uint64(s.EX.V))
			e = appendIDs(e, s.CycleVertices)
			e = appendIDs(e, s.CycleEdges)
			e = codec.AppendUvarint(e, uint64(s.InsideWeight))
			e = codec.AppendUvarint(e, uint64(s.TotalWeight))
			e = codec.AppendUvarint(e, math.Float64bits(s.Balance))
			e = codec.AppendUvarint(e, uint64(s.TreeDepth))
			// The separator's sides: bag darts by the child they landed in,
			// the rest — the bag's hole darts — stored per side.
			e = appendIDs(e, dartsToInts(b.HoleDarts[0]))
			e = appendIDs(e, dartsToInts(b.HoleDarts[1]))
		}
	}
	return e, nil
}

func decodeTree(d *codec.Reader, g *planar.Graph) (*TreeEntry, error) {
	leafLimit, buildRounds, depth := d.Uvarint(), d.Varint(), d.Uvarint()
	numBags := readCount(d)
	if numBags == 0 {
		return nil, d.Failf("tree with no bags")
	}
	t := &bdd.BDD{G: g, LeafLimit: int(leafLimit), Depth: int(depth)}
	fd := g.Faces()
	dv := bdd.NewDeriver(g)
	bags := slices.Grow([]*bdd.Bag(nil), numBags)[:numBags]
	for i := range bags {
		bags[i] = &bdd.Bag{ID: i}
	}
	type pending struct {
		parent   int // -1 for root
		children []int
	}
	links := make([]pending, numBags)
	for i, b := range bags {
		b.Level = int(d.Uvarint())
		parent := d.Uvarint()
		if parent > uint64(i) { // parent id must be < own id (or 0 = none)
			return nil, d.Failf("bag %d parent %d", i, parent-1)
		}
		links[i].parent = int(parent) - 1
		nc := readCount(d)
		if nc != 0 && nc != 2 {
			return nil, d.Failf("bag %d has %d children", i, nc)
		}
		for j := 0; j < nc; j++ {
			c := d.ID(numBags)
			if c <= i {
				return nil, d.Failf("bag %d child %d not below it", i, c)
			}
			links[i].children = append(links[i].children, c)
		}
		b.TreeDepth = int(d.Uvarint())
		if err := dv.SetDarts(b, readDarts(d, g.NumDarts())); err != nil {
			return nil, d.Failf("bag %d: %v", i, err)
		}
		b.SXEdges = readIDs(d, g.M())
		b.DualSXEdges = readIDs(d, g.M())
		b.FX = readIDs(d, fd.NumFaces())
		hasSep := d.Bool()
		if hasSep != (nc == 2) {
			return nil, d.Failf("bag %d separator/children mismatch", i)
		}
		if hasSep {
			s := &separator.Result{Found: true}
			s.EX.Real = d.Bool()
			edge := d.Varint()
			if edge < -1 || edge >= int64(g.M()) || (s.EX.Real && edge < 0) {
				return nil, d.Failf("bag %d EX edge %d", i, edge)
			}
			s.EX.Edge = int(edge)
			s.EX.U, s.EX.V = d.ID(g.N()), d.ID(g.N())
			s.CycleVertices = readIDs(d, g.N())
			s.CycleEdges = readIDs(d, g.M())
			s.InsideWeight, s.TotalWeight = int(d.Uvarint()), int(d.Uvarint())
			s.Balance = math.Float64frombits(d.Uvarint())
			s.TreeDepth = int(d.Uvarint())
			for side := range b.HoleDarts {
				hs := readDarts(d, g.NumDarts())
				for j, h := range hs {
					if b.Has(h) || !b.Has(planar.Rev(h)) || (j > 0 && h <= hs[j-1]) {
						return nil, d.Failf("bag %d hole dart %d", i, h)
					}
				}
				b.HoleDarts[side] = hs
			}
			b.Sep = s
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	for i, b := range bags {
		if links[i].parent >= 0 {
			b.Parent = bags[links[i].parent]
		}
		for _, c := range links[i].children {
			b.Children = append(b.Children, bags[c])
		}
	}
	for _, b := range bags {
		for _, c := range b.Children {
			if c.Parent != b {
				return nil, d.Failf("bag %d claimed by two parents", c.ID)
			}
			for _, dart := range c.Darts {
				if !b.Has(dart) {
					return nil, d.Failf("bag %d holds dart %d its parent %d lacks", c.ID, dart, b.ID)
				}
			}
		}
	}
	t.Root = bags[0]
	t.Bags = bags
	return &TreeEntry{LeafLimit: int(leafLimit), BuildRounds: buildRounds, Tree: t}, nil
}

// readDarts is readIDs for a dart list.
func readDarts(d *codec.Reader, limit int) []planar.Dart {
	ids := readIDs(d, limit)
	if ids == nil {
		return nil
	}
	out := slices.Grow([]planar.Dart(nil), len(ids))[:len(ids)]
	for i, x := range ids {
		out[i] = planar.Dart(x)
	}
	return out
}

func dartsToInts(ds []planar.Dart) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = int(d)
	}
	return out
}
