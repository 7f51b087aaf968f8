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
//
// A bag holds only its own darts: a dart bitset, its edge count, its faces
// and face-parts, and the hole darts that, with child membership, give the
// separator's side of every dart it touches. Nothing a bag keeps is sized
// to the graph; the graph-sized buffers a build needs live in the builder
// and are reused across every split.
package bdd

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/separator"
)

// Bag is one node of the decomposition tree. It holds only its own darts:
// membership, faces and the separator's sides are bag-local, so a tree
// costs the sum of its bag sizes, not bags × m.
type Bag struct {
	ID     int
	Level  int
	Parent *Bag
	// Children has length 0 (leaf) or 2 (interior side 0, exterior side 1 of
	// the separator).
	Children []*Bag

	// Darts of the bag: dart d is in the bag iff the face region d borders
	// belongs to the bag. An edge may have one dart in the bag (its other
	// dart lies on a hole of an ancestor separator). Build lists them in
	// ascending order.
	Darts []planar.Dart

	// Faces lists the faces of G with a dart in the bag, in the order of
	// their first dart in Darts.
	Faces []int

	// HoleDarts[s] lists, ascending, the darts outside a non-leaf bag whose
	// reversal is in it (they border a hole of an ancestor separator) that
	// the separator put on side s. With child membership they give the side
	// of every dart of a bag edge (SideOf).
	HoleDarts [2][]planar.Dart

	// Separator data (non-leaf bags). Sep.Side is nil: SideOf stands for it.
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

	member   []uint64 // dart bitset; word i holds darts 64·(memberLo+i) …
	memberLo int
	numEdges int
	parts    []int // the faces of Faces only partly in the bag (face-parts)
}

// IsLeaf reports whether the bag has no children.
func (b *Bag) IsLeaf() bool { return len(b.Children) == 0 }

// Has reports whether dart d is in the bag.
func (b *Bag) Has(d planar.Dart) bool {
	w := int(d)>>6 - b.memberLo
	return uint(w) < uint(len(b.member)) && b.member[w]&(1<<(uint(d)&63)) != 0
}

// NumEdges returns the number of edges with at least one dart in the bag.
func (b *Bag) NumEdges() int { return b.numEdges }

// IsWhole reports whether face f is in the bag with every one of its darts
// (a whole face, not a face-part). Lemma 5.3 keeps the face-parts few.
func (b *Bag) IsWhole(f int) bool {
	return !slices.Contains(b.parts, f) && slices.Contains(b.Faces, f)
}

// SideOf returns the separator side of dart d in a non-leaf bag: the child
// holding d, or for a hole dart the side HoleDarts records; -1 for darts of
// edges outside the bag and on leaves.
func (b *Bag) SideOf(d planar.Dart) int {
	for s, c := range b.Children {
		if c.Has(d) {
			return s
		}
	}
	for s, hs := range b.HoleDarts {
		if _, ok := slices.BinarySearch(hs, d); ok {
			return s
		}
	}
	return -1
}

// A Deriver derives what a bag keeps besides its darts — membership, edge
// count, faces and face-parts — reusing one face-sized counter across the
// bags of one graph. Build and snapshot restore each hold one; it is not
// safe for concurrent use.
type Deriver struct {
	fd    *planar.FaceData
	count []int32 // darts per face of the bag being derived; zero between calls
	faces []int   // faces of that bag in first-dart order
}

// NewDeriver returns a Deriver for the bags of g.
func NewDeriver(g *planar.Graph) *Deriver {
	fd := g.Faces()
	return &Deriver{fd: fd, count: make([]int32, fd.NumFaces())}
}

// SetDarts makes darts (ids of the Deriver's graph) the bag's dart set and
// derives the rest of the bag's membership and face tables from it. A dart
// listed twice is an error.
func (dv *Deriver) SetDarts(b *Bag, darts []planar.Dart) error {
	if len(darts) == 0 {
		return errors.New("bdd: bag with no darts")
	}
	lo, hi := darts[0], darts[0]
	for _, d := range darts {
		lo, hi = min(lo, d), max(hi, d)
	}
	b.Darts = darts
	b.memberLo = int(lo) >> 6
	b.member = slices.Grow([]uint64(nil), int(hi)>>6-b.memberLo+1)[:int(hi)>>6-b.memberLo+1]
	for _, d := range darts {
		w, bit := int(d)>>6-b.memberLo, uint64(1)<<(uint(d)&63)
		if b.member[w]&bit != 0 {
			return fmt.Errorf("bdd: dart %d listed twice", d)
		}
		b.member[w] |= bit
	}
	b.numEdges = 0
	faces := dv.faces[:0]
	for _, d := range darts {
		if planar.IsForward(d) || !b.Has(planar.Rev(d)) {
			b.numEdges++
		}
		f := dv.fd.FaceOf(d)
		if dv.count[f] == 0 {
			faces = append(faces, f)
		}
		dv.count[f]++
	}
	b.Faces = keep(faces)
	parts := faces[:0]
	for _, f := range b.Faces {
		if int(dv.count[f]) != dv.fd.Len(f) {
			parts = append(parts, f)
		}
		dv.count[f] = 0
	}
	b.parts = keep(parts)
	dv.faces = parts
	return nil
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
	bl := &builder{t: t, dv: NewDeriver(g), edgeIn: make([]bool, g.M())}

	root := &Bag{ID: 0, Level: 0}
	darts := slices.Grow([]planar.Dart(nil), g.NumDarts())[:g.NumDarts()]
	for d := range darts {
		darts[d] = planar.Dart(d)
	}
	bl.dv.SetDarts(root, darts)
	t.Root = root
	t.Bags = append(t.Bags, root)

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
		bfs := bl.load(b)
		if b.TreeDepth > maxDepthAtLevel[b.Level] {
			maxDepthAtLevel[b.Level] = b.TreeDepth
		}
		// Not above the leaf limit, or no usable separator: a leaf.
		if b.NumEdges() > leafLimit && bl.split(b, bfs) {
			queue = append(queue, b.Children...)
		}
		bl.unload(b)
	}
	t.Bags = keep(t.Bags)

	// Charge construction: each level costs Õ(depth) rounds ([17]+[27]);
	// bags of a level run in parallel with constant overhead (property 7).
	logn := int64(bits.Len(uint(g.N()))) + 1
	for lvl := 0; lvl < t.Depth; lvl++ {
		led.Charge("bdd/construct-level", logn*int64(maxDepthAtLevel[lvl]+2))
	}
	return t, nil
}

// builder holds the graph-sized buffers one Build reuses across every bag:
// the edge set of the bag in hand, the separator's scratch and the
// Deriver's face counters. Nothing a bag keeps is sized to the graph.
type builder struct {
	t      *BDD
	dv     *Deriver
	edgeIn []bool // edges of the loaded bag
	sep    separator.Scratch
	ints   []int            // a split's dual S_X edges, then its F_X
	holes  [2][]planar.Dart // a split's hole darts per side
}

// keep copies a build buffer into what a bag keeps: a slice whose capacity
// is its allocation size, so FootprintBytes' count of capacities is the
// heap; nil when empty. Snapshot restore sizes its slices the same way.
func keep[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// load marks b's edges in edgeIn and measures the BFS depth of its
// edge-subgraph, rooted at the tail of its first edge; the split reuses the
// tree.
func (bl *builder) load(b *Bag) *planar.BFSResult {
	g := bl.t.G
	for _, d := range b.Darts {
		bl.edgeIn[planar.EdgeOf(d)] = true
	}
	bfs := g.BFSWithin(g.Edge(planar.EdgeOf(b.Darts[0])).U, func(d planar.Dart) bool { return bl.edgeIn[planar.EdgeOf(d)] })
	b.TreeDepth = bfs.Depth
	return bfs
}

func (bl *builder) unload(b *Bag) {
	for _, d := range b.Darts {
		bl.edgeIn[planar.EdgeOf(d)] = false
	}
}

// split computes the separator of the loaded bag b and creates its two
// children; returns false if no useful split exists.
func (bl *builder) split(b *Bag, bfs *planar.BFSResult) bool {
	t, g := bl.t, bl.t.G
	sep := separator.FindCycleSeparator(g, bl.edgeIn, planar.NewSubFaces(g, bl.edgeIn), bfs, &bl.sep)
	if !sep.Found {
		return false
	}
	side := sep.Side
	var nDarts, nEdges [2]int
	for _, d := range b.Darts {
		s := side[d]
		if s < 0 {
			return false // inconsistent side assignment; treat as leaf
		}
		nDarts[s]++
		if r := planar.Rev(d); planar.IsForward(d) || !b.Has(r) || side[r] != s {
			nEdges[s]++
		}
	}
	// Guard against empty and non-shrinking splits.
	if pe := b.NumEdges(); nDarts[0] == 0 || nDarts[1] == 0 || nEdges[0] >= pe || nEdges[1] >= pe {
		return false
	}

	b.Children = make([]*Bag, 2)
	for s := range b.Children {
		darts := slices.Grow([]planar.Dart(nil), nDarts[s])
		for _, d := range b.Darts {
			if int(side[d]) == s {
				darts = append(darts, d)
			}
		}
		c := &Bag{ID: len(t.Bags), Level: b.Level + 1, Parent: b}
		bl.dv.SetDarts(c, darts)
		t.Bags = append(t.Bags, c)
		b.Children[s] = c
	}
	holes := [2][]planar.Dart{bl.holes[0][:0], bl.holes[1][:0]}
	for _, d := range b.Darts {
		if r := planar.Rev(d); !b.Has(r) {
			holes[side[r]] = append(holes[side[r]], r)
		}
	}
	for s := range holes {
		b.HoleDarts[s], bl.holes[s] = keep(holes[s]), holes[s]
	}
	sep.Side = nil
	sep.CycleVertices, sep.CycleEdges = keep(sep.CycleVertices), keep(sep.CycleEdges)
	b.Sep = sep
	b.SXEdges = keep(sep.CycleEdges)

	// Dual S_X edges: separator edges with both darts in this bag.
	dual := bl.ints[:0]
	for _, e := range b.SXEdges {
		if b.Has(planar.ForwardDart(e)) && b.Has(planar.BackwardDart(e)) {
			dual = append(dual, e)
		}
	}
	b.DualSXEdges = keep(dual)
	// FX: dual endpoints of dual S_X edges + faces present in both
	// children (marked in the Deriver's counters, which are zero here).
	fd, mark := bl.dv.fd, bl.dv.count
	fx := dual[:0]
	for _, e := range b.DualSXEdges {
		fx = append(fx, fd.FaceOf(planar.ForwardDart(e)), fd.FaceOf(planar.BackwardDart(e)))
	}
	for _, f := range b.Children[0].Faces {
		mark[f] = 1
	}
	for _, f := range b.Children[1].Faces {
		if mark[f] == 1 {
			fx = append(fx, f)
		}
	}
	for _, f := range b.Children[0].Faces {
		mark[f] = 0
	}
	// Sorted so identical builds produce identical trees byte-for-byte
	// (label content is FX-order-independent, but the snapshot codec and
	// the DDG node numbering read the slice as stored).
	slices.Sort(fx)
	b.FX = keep(slices.Compact(fx))
	bl.ints = fx
	return true
}

// DualArcs enumerates the arcs of the dual bag X*: for every dart d with d
// and rev(d) both in the bag, an arc FaceOf(d) -> FaceOf(rev(d)). The
// callback receives the dart (its dual arc's identity).
func (b *Bag) DualArcs(g *planar.Graph, visit func(d planar.Dart, from, to int)) {
	fd := g.Faces()
	for _, d := range b.Darts {
		if b.Has(planar.Rev(d)) {
			visit(d, fd.FaceOf(d), fd.FaceOf(planar.Rev(d)))
		}
	}
}

// FootprintBytes is the resident memory of the decomposition, counted at
// the real sizes of what it keeps: the tree and bag structs, every bag's
// slices at their capacity (dart lists, membership words, face tables,
// hole darts, separator data) and each separator result. Store budgeting
// charges a resident tree by it; TestBDDFootprintBoundsHeap holds it within
// [1, 1.25]× the heap a tree keeps alive.
func (t *BDD) FootprintBytes() int64 {
	b := objectBytes(unsafe.Sizeof(*t)) + words(cap(t.Bags))
	for _, bag := range t.Bags {
		b += objectBytes(unsafe.Sizeof(*bag)) + words(cap(bag.Children), cap(bag.Darts), cap(bag.Faces),
			cap(bag.HoleDarts[0]), cap(bag.HoleDarts[1]), cap(bag.SXEdges), cap(bag.DualSXEdges), cap(bag.FX),
			cap(bag.member), cap(bag.parts))
		if s := bag.Sep; s != nil {
			b += objectBytes(unsafe.Sizeof(*s)) + words(cap(s.CycleVertices), cap(s.CycleEdges))
		}
	}
	return b
}

// objectBytes is the heap a struct of n bytes takes: Go's small-object
// size classes step by 16 bytes up to 256 and by 32 up to 512.
func objectBytes(n uintptr) int64 {
	step := uintptr(16)
	if n > 256 {
		step = 32
	}
	return int64((n + step - 1) / step * step)
}

// words is the heap of slices of 8-byte elements with capacities caps: a
// one-element slice still takes a 16-byte block.
func words(caps ...int) int64 {
	var b int64
	for _, c := range caps {
		if c > 0 {
			b += int64(max(c, 2)) * 8
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
		m = max(m, len(b.parts))
	}
	return m
}
