// Package bdd builds the Bounded Diameter Decomposition of Li–Parter [27]
// extended with the paper's dual bookkeeping (§5.1): bags are dart sets, a
// dual bag X* has one node per face *or face-part* of G present in X, the
// separator S_X of a bag is a cycle of two BFS-tree paths plus a possibly
// virtual edge e_X, and F_X (dual separator) collects the dual endpoints of
// S_X edges plus the faces partitioned between child bags.
//
// Face-part identity follows the paper exactly: all darts of the same face
// of G inside a bag form a single dual node (a face-part may be
// disconnected); it is a whole face when the bag contains every dart of the
// face. By Lemma 5.3 at most one whole face is partitioned per bag (the
// critical face containing the virtual edge), which our separator guarantees
// by construction: a virtual chord splits exactly its own sub-embedding
// orbit.
package bdd

import (
	"context"
	"math/bits"
	"sort"
	"sync"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/separator"
)

// Bag is one node of the decomposition tree.
type Bag struct {
	ID     int
	Level  int
	Parent *Bag
	// Children has length 0 (leaf) or 2 (interior side 0, exterior side 1 of
	// the separator).
	Children []*Bag

	// Darts of the bag: dart d is in the bag iff the face region d borders
	// belongs to the bag. An edge may have one dart in the bag (its other
	// dart lies on a hole of an ancestor separator).
	Darts  []planar.Dart
	InBag  []bool // indexed by dart
	EdgeIn []bool // edge has >= 1 dart in bag

	// Faces present (by G face id) and whether each is whole here.
	Faces   []int
	FaceSet map[int]bool
	Whole   map[int]bool

	// Separator data (non-leaf bags).
	Sep     *separator.Result
	SXEdges []int // real edges of the separator cycle
	// DualSXEdges lists separator edges that exist in X* (both darts in the
	// bag); their dual arcs connect faces of X*.
	DualSXEdges []int
	// FX is the dual separator: faces incident to a dual S_X edge or
	// present in both children (Thm 5.2 property 11).
	FX []int

	// TreeDepth is the measured BFS depth of the bag's edge-subgraph (round
	// accounting uses it in place of the paper's Õ(D) bound).
	TreeDepth int
}

// IsLeaf reports whether the bag has no children.
func (b *Bag) IsLeaf() bool { return len(b.Children) == 0 }

// NumEdges returns the number of edges with at least one dart in the bag.
func (b *Bag) NumEdges() int {
	n := 0
	for _, in := range b.EdgeIn {
		if in {
			n++
		}
	}
	return n
}

// BDD is the full decomposition.
type BDD struct {
	G         *planar.Graph
	Root      *Bag
	Bags      []*Bag
	LeafLimit int
	Depth     int // number of levels (root = level 0)

	memoOnce sync.Once
	memo     any
}

// Memo returns what derive returned on the first call for this tree and
// does not run it again. The labelings keep the structure they read off the
// finished tree here (internal/label's per-view plans), so that structure is
// derived on first use — the first labeling pass over the tree or the first
// labeling restored over it — shared by every pass and labeling over the
// tree, and freed with it; a tree that carries no labeling never pays for
// it. Safe for concurrent use.
func (t *BDD) Memo(derive func() any) any {
	t.memoOnce.Do(func() { t.memo = derive() })
	return t.memo
}

// DefaultLeafLimit returns the paper's Θ(D log n) leaf bag size for g, with
// D estimated by a double BFS sweep.
func DefaultLeafLimit(g *planar.Graph) int {
	l := g.DiameterLowerBound() * (bits.Len(uint(g.N())) + 1)
	if l < 16 {
		l = 16
	}
	return l
}

// Build computes the decomposition of g, splitting bags until they have at
// most leafLimit edges (the paper uses Θ(D log n); pass 0 for
// DefaultLeafLimit). Construction rounds are charged per level from the
// measured bag depths (the distributed BDD of [27] builds each level in
// Õ(D) rounds).
func Build(g *planar.Graph, leafLimit int, led *ledger.Ledger) *BDD {
	t, _ := BuildContext(context.Background(), g, leafLimit, led)
	return t
}

// BuildContext is Build with a cancellation checkpoint before every bag
// split: a canceled context aborts the remaining construction and returns
// ctx.Err() with a nil tree, charging nothing (level charges are emitted
// only on completion). The background context never fails, so Build wraps
// this without an error path.
func BuildContext(ctx context.Context, g *planar.Graph, leafLimit int, led *ledger.Ledger) (*BDD, error) {
	if leafLimit == 0 {
		leafLimit = DefaultLeafLimit(g)
	}
	if leafLimit < 4 {
		leafLimit = 4
	}
	t := &BDD{G: g, LeafLimit: leafLimit}
	fd := g.Faces()

	root := &Bag{ID: 0, Level: 0}
	root.InBag = make([]bool, g.NumDarts())
	root.Darts = make([]planar.Dart, g.NumDarts())
	for d := range root.Darts {
		root.Darts[d] = planar.Dart(d)
		root.InBag[d] = true
	}
	t.Root = root
	t.Bags = append(t.Bags, root)
	t.fillDerived(root)

	queue := []*Bag{root}
	maxDepthAtLevel := map[int]int{}
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := queue[0]
		queue = queue[1:]
		if b.Level+1 > t.Depth {
			t.Depth = b.Level + 1
		}
		if b.TreeDepth > maxDepthAtLevel[b.Level] {
			maxDepthAtLevel[b.Level] = b.TreeDepth
		}
		if b.NumEdges() <= leafLimit {
			continue // leaf
		}
		if !t.split(b, fd) {
			continue // no usable separator: leaf
		}
		queue = append(queue, b.Children...)
	}

	// Charge construction: each level costs Õ(depth) rounds ([17]+[27]);
	// bags of a level run in parallel with constant overhead (property 7).
	logn := int64(bits.Len(uint(g.N()))) + 1
	for lvl := 0; lvl < t.Depth; lvl++ {
		led.Charge("bdd/construct-level", logn*int64(maxDepthAtLevel[lvl]+2))
	}
	return t, nil
}

// fillDerived computes EdgeIn, Faces, Whole and TreeDepth of a bag whose
// Darts/InBag are set.
func (t *BDD) fillDerived(b *Bag) {
	g := t.G
	fd := g.Faces()
	b.EdgeIn = make([]bool, g.M())
	b.FaceSet = make(map[int]bool)
	faceDarts := map[int]int{}
	for _, d := range b.Darts {
		b.EdgeIn[planar.EdgeOf(d)] = true
		f := fd.FaceOf(d)
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
	// Measured subgraph BFS depth (root at first bag edge endpoint).
	for e := 0; e < g.M(); e++ {
		if b.EdgeIn[e] {
			bfs := g.BFSWithin(g.Edge(e).U, func(d planar.Dart) bool { return b.EdgeIn[planar.EdgeOf(d)] })
			b.TreeDepth = bfs.Depth
			break
		}
	}
}

// split computes the separator of b and creates its two children; returns
// false if no useful split exists.
func (t *BDD) split(b *Bag, fd *planar.FaceData) bool {
	g := t.G
	sf := planar.NewSubFaces(g, b.EdgeIn)
	sep := separator.FindCycleSeparator(g, b.EdgeIn, sf)
	if !sep.Found {
		return false
	}

	childDarts := [2][]planar.Dart{}
	for _, d := range b.Darts {
		s := sep.Side[d]
		if s < 0 {
			return false // inconsistent side assignment; treat as leaf
		}
		childDarts[s] = append(childDarts[s], d)
	}
	if len(childDarts[0]) == 0 || len(childDarts[1]) == 0 {
		return false
	}

	b.Sep = sep
	b.SXEdges = append([]int(nil), sep.CycleEdges...)
	for side := 0; side < 2; side++ {
		c := &Bag{
			ID:     len(t.Bags),
			Level:  b.Level + 1,
			Parent: b,
			Darts:  childDarts[side],
		}
		c.InBag = make([]bool, g.NumDarts())
		for _, d := range c.Darts {
			c.InBag[d] = true
		}
		t.Bags = append(t.Bags, c)
		t.fillDerived(c)
		b.Children = append(b.Children, c)
	}
	// Guard against non-shrinking splits.
	pe := b.NumEdges()
	if b.Children[0].NumEdges() >= pe || b.Children[1].NumEdges() >= pe {
		t.Bags = t.Bags[:len(t.Bags)-2]
		b.Children = nil
		b.Sep = nil
		b.SXEdges = nil
		return false
	}

	// Dual S_X edges: separator edges with both darts in this bag.
	for _, e := range b.SXEdges {
		if b.InBag[planar.ForwardDart(e)] && b.InBag[planar.BackwardDart(e)] {
			b.DualSXEdges = append(b.DualSXEdges, e)
		}
	}
	// FX: dual endpoints of dual S_X edges + faces present in both children.
	fx := map[int]bool{}
	for _, e := range b.DualSXEdges {
		fx[fd.FaceOf(planar.ForwardDart(e))] = true
		fx[fd.FaceOf(planar.BackwardDart(e))] = true
	}
	for _, f := range b.Faces {
		if b.Children[0].FaceSet[f] && b.Children[1].FaceSet[f] {
			fx[f] = true
		}
	}
	for f := range fx {
		b.FX = append(b.FX, f)
	}
	// Sorted so identical builds produce identical trees byte-for-byte
	// (label content is FX-order-independent, but the snapshot codec and
	// the DDG node numbering read the slice as stored).
	sort.Ints(b.FX)
	return true
}

// DualArcs enumerates the arcs of the dual bag X*: for every dart d with d
// and rev(d) both in the bag, an arc FaceOf(d) -> FaceOf(rev(d)). The
// callback receives the dart (its dual arc's identity).
func (b *Bag) DualArcs(g *planar.Graph, visit func(d planar.Dart, from, to int)) {
	fd := g.Faces()
	for _, d := range b.Darts {
		if b.InBag[planar.Rev(d)] {
			visit(d, fd.FaceOf(d), fd.FaceOf(planar.Rev(d)))
		}
	}
}

// FootprintBytes estimates the resident memory of the decomposition: the
// per-bag dart lists, membership bitmaps, face tables and separator data.
// It is an accounting estimate (used by eviction budgeting), not an exact
// heap measurement: slices count len·elemsize, maps count entries at the
// ~48 bytes/entry Go runtime rule of thumb.
func (t *BDD) FootprintBytes() int64 {
	const (
		wordSize = 8
		mapEntry = 48 // amortized per-entry cost of a small-key Go map
		bagFixed = 160
	)
	var b int64
	for _, bag := range t.Bags {
		b += bagFixed
		b += int64(len(bag.Darts)) * wordSize
		b += int64(len(bag.InBag)) + int64(len(bag.EdgeIn)) // bools
		b += int64(len(bag.Faces)) * wordSize
		b += int64(len(bag.FaceSet)+len(bag.Whole)) * mapEntry
		b += int64(len(bag.SXEdges)+len(bag.DualSXEdges)+len(bag.FX)) * wordSize
		if bag.Sep != nil {
			b += int64(len(bag.Sep.CycleVertices)+len(bag.Sep.CycleEdges)) * wordSize
			b += int64(len(bag.Sep.Side)) // int8 side assignment per dart
		}
	}
	return b
}

// MaxSXSize returns the largest separator cycle (vertex count) over bags.
func (t *BDD) MaxSXSize() int {
	m := 0
	for _, b := range t.Bags {
		if b.Sep != nil && len(b.Sep.CycleVertices) > m {
			m = len(b.Sep.CycleVertices)
		}
	}
	return m
}

// MaxFX returns the largest dual separator size over bags.
func (t *BDD) MaxFX() int {
	m := 0
	for _, b := range t.Bags {
		if len(b.FX) > m {
			m = len(b.FX)
		}
	}
	return m
}

// MaxFaceParts returns, over all bags, the maximum number of non-whole faces
// (face-parts) present in a single bag (property 9 of Thm 5.2).
func (t *BDD) MaxFaceParts() int {
	m := 0
	for _, b := range t.Bags {
		cnt := 0
		for _, f := range b.Faces {
			if !b.Whole[f] {
				cnt++
			}
		}
		if cnt > m {
			m = cnt
		}
	}
	return m
}
