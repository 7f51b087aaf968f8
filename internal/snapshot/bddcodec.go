package snapshot

// BDD tree codec (section type 1). A bag is stored as its identity
// (level, parent, children), its dart list, the measured tree depth, and
// the separator summary of non-leaf bags; everything derivable from those
// against the fingerprint-checked graph — dart/edge membership bitmaps,
// face tables, whole-face flags, the per-dart side assignment — is
// reconstructed at decode time, which keeps snapshots a fraction of the
// resident footprint while restoring the exact in-memory structure the
// builder would have produced.

import (
	"fmt"
	"math"

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

func encodeTree(g *planar.Graph, t *TreeEntry) ([]byte, error) {
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
			// Most of Side reconstructs from child membership (the split
			// assigned every bag dart to the child it landed in); the
			// remainder — darts of bag edges that are not themselves in the
			// bag (hole-boundary darts) — is stored explicitly per side.
			var extra [2][]int
			for d := 0; d < g.NumDarts(); d++ {
				side := s.Side[d]
				if side < 0 || b.Children[0].InBag[d] || b.Children[1].InBag[d] {
					continue
				}
				extra[side] = append(extra[side], d)
			}
			e = appendIDs(e, extra[0])
			e = appendIDs(e, extra[1])
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
	bags := make([]*bdd.Bag, numBags)
	for i := range bags {
		bags[i] = &bdd.Bag{ID: i}
	}
	type pending struct {
		parent   int // -1 for root
		children []int
		extra    [2][]int // explicit Side assignments per region
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
		darts := readIDs(d, g.NumDarts())
		if len(darts) == 0 {
			return nil, d.Failf("bag %d has no darts", i)
		}
		b.SXEdges = readIDs(d, g.M())
		b.DualSXEdges = readIDs(d, g.M())
		b.FX = readIDs(d, fd.NumFaces())
		fillBagDerived(g, fd, b, darts)
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
			for side := range links[i].extra {
				links[i].extra[side] = readIDs(d, g.NumDarts())
			}
			b.Sep = s
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Link the tree and rebuild each separator's per-dart side assignment
	// from child membership (split assigned dart d to the child InBag it
	// lands in; darts outside the bag carry -1).
	for i, b := range bags {
		if links[i].parent >= 0 {
			b.Parent = bags[links[i].parent]
		}
		for _, c := range links[i].children {
			b.Children = append(b.Children, bags[c])
		}
		if len(b.Children) == 2 {
			side := make([]int8, g.NumDarts())
			for d := range side {
				side[d] = -1
			}
			for ci, c := range b.Children {
				for _, dart := range c.Darts {
					side[dart] = int8(ci)
				}
			}
			for ci := range links[i].extra {
				for _, dart := range links[i].extra[ci] {
					side[dart] = int8(ci)
				}
			}
			b.Sep.Side = side
		}
	}
	for _, b := range bags {
		for _, c := range b.Children {
			if c.Parent != b {
				return nil, d.Failf("bag %d claimed by two parents", c.ID)
			}
		}
	}
	t.Root = bags[0]
	t.Bags = bags
	return &TreeEntry{LeafLimit: int(leafLimit), BuildRounds: buildRounds, Tree: t}, nil
}

// fillBagDerived mirrors bdd.(*BDD).fillDerived without the BFS: darts
// are stored, membership and face tables derive from them, and the
// measured TreeDepth travels in the snapshot.
func fillBagDerived(g *planar.Graph, fd *planar.FaceData, b *bdd.Bag, darts []int) {
	b.Darts = make([]planar.Dart, len(darts))
	b.InBag = make([]bool, g.NumDarts())
	b.EdgeIn = make([]bool, g.M())
	b.FaceSet = make(map[int]bool)
	faceDarts := map[int]int{}
	for i, di := range darts {
		dart := planar.Dart(di)
		b.Darts[i] = dart
		b.InBag[dart] = true
		b.EdgeIn[planar.EdgeOf(dart)] = true
		f := fd.FaceOf(dart)
		if !b.FaceSet[f] {
			b.FaceSet[f] = true
			b.Faces = append(b.Faces, f)
		}
		faceDarts[f]++
	}
	b.Whole = make(map[int]bool, len(b.Faces))
	for _, f := range b.Faces {
		b.Whole[f] = faceDarts[f] == fd.Len(f)
	}
}

func dartsToInts(ds []planar.Dart) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = int(d)
	}
	return out
}
