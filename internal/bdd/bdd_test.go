package bdd

import (
	"math/bits"
	"slices"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

func buildOn(t *testing.T, g *planar.Graph, leafLimit int) *BDD {
	t.Helper()
	led := ledger.New()
	bd := Build(g, leafLimit, led)
	if led.Total() == 0 {
		t.Fatal("no construction rounds charged")
	}
	return bd
}

func TestRootBag(t *testing.T) {
	g := planar.Grid(4, 4)
	bd := buildOn(t, g, 8)
	root := bd.Root
	if len(root.Darts) != g.NumDarts() {
		t.Fatalf("root darts=%d want %d", len(root.Darts), g.NumDarts())
	}
	if len(root.Faces) != g.Faces().NumFaces() {
		t.Fatalf("root faces=%d want %d", len(root.Faces), g.Faces().NumFaces())
	}
	for _, f := range root.Faces {
		if !root.IsWhole(f) {
			t.Fatalf("face %d not whole at root", f)
		}
	}
}

func TestLeafSizes(t *testing.T) {
	g := planar.Grid(10, 10)
	leafLimit := 20
	bd := buildOn(t, g, leafLimit)
	for _, b := range bd.Bags {
		if b.IsLeaf() {
			continue
		}
		if b.NumEdges() <= leafLimit {
			t.Fatalf("bag %d split below leaf limit", b.ID)
		}
	}
	foundLeaf := false
	for _, b := range bd.Bags {
		if b.IsLeaf() {
			foundLeaf = true
		}
	}
	if !foundLeaf {
		t.Fatal("no leaves")
	}
}

func TestDartPartitionPerLevel(t *testing.T) {
	// Property: each dart of a bag goes to exactly one child (Lemma 5.5).
	g := planar.Grid(8, 8)
	bd := buildOn(t, g, 16)
	for _, b := range bd.Bags {
		if b.IsLeaf() {
			continue
		}
		seen := make(map[planar.Dart]int)
		for ci, c := range b.Children {
			for _, d := range c.Darts {
				if prev, ok := seen[d]; ok {
					t.Fatalf("bag %d: dart %d in children %d and %d", b.ID, d, prev, ci)
				}
				seen[d] = ci
			}
		}
		if len(seen) != len(b.Darts) {
			t.Fatalf("bag %d: children darts %d != parent %d", b.ID, len(seen), len(b.Darts))
		}
		for _, d := range b.Darts {
			if _, ok := seen[d]; !ok {
				t.Fatalf("bag %d: dart %d lost", b.ID, d)
			}
		}
	}
}

func TestKnowledgeBagChainsCoverLevels(t *testing.T) {
	// What a dart's endpoints know of the decomposition is its bag chain:
	// from the root, the one child holding the dart at each level, down to a
	// leaf, one bag per level.
	g := planar.Grid(7, 7)
	bd := buildOn(t, g, 12)
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		b := bd.Root
		if !b.Has(d) {
			t.Fatalf("dart %d not in the root bag", d)
		}
		for !b.IsLeaf() {
			var next *Bag
			for _, c := range b.Children {
				if c.Has(d) {
					if next != nil {
						t.Fatalf("dart %d in both children of bag %d", d, b.ID)
					}
					next = c
				}
			}
			if next == nil {
				t.Fatalf("dart %d stops at non-leaf bag %d", d, b.ID)
			}
			if next.Level != b.Level+1 {
				t.Fatalf("dart %d: bag %d at level %d under bag %d at level %d", d, next.ID, next.Level, b.ID, b.Level)
			}
			b = next
		}
		if b.Level > bd.Depth {
			t.Fatalf("dart %d: leaf bag %d at level %d below depth %d", d, b.ID, b.Level, bd.Depth)
		}
	}
}

func TestKnowledgeCriticalMatchesSplitFaces(t *testing.T) {
	// Lemma 5.3's critical face: a whole face split between a bag's children
	// is the face the virtual e_X is embedded in, so it is in F_X and both
	// endpoints of e_X lie on it.
	g := planar.Grid(9, 9)
	bd := buildOn(t, g, 16)
	fd := g.Faces()
	critical := 0
	for _, b := range bd.Bags {
		if b.IsLeaf() {
			continue
		}
		for _, f := range b.Faces {
			if !b.IsWhole(f) || !slices.Contains(b.Children[0].Faces, f) || !slices.Contains(b.Children[1].Faces, f) {
				continue
			}
			critical++
			if b.Sep.EX.Real {
				t.Fatalf("bag %d: whole face %d split despite real e_X", b.ID, f)
			}
			if !slices.Contains(b.FX, f) {
				t.Fatalf("bag %d: split whole face %d not in F_X", b.ID, f)
			}
			onU, onV := false, false
			for _, d := range fd.Cycle(f) {
				onU = onU || g.Tail(d) == b.Sep.EX.U
				onV = onV || g.Tail(d) == b.Sep.EX.V
			}
			if !onU || !onV {
				t.Fatalf("bag %d: virtual e_X (%d,%d) not on split face %d", b.ID, b.Sep.EX.U, b.Sep.EX.V, f)
			}
		}
	}
	t.Logf("%d critical faces", critical)
}

func TestHalfEdgesOnAncestorSeparator(t *testing.T) {
	// Lemma 5.5: a bag loses one dart of an edge only to a hole an ancestor's
	// separator cut, so an edge with a single dart in a bag lies on some
	// ancestor's S_X.
	rng := planar.NewRand(19)
	graphs := []*planar.Graph{
		planar.Grid(8, 8),
		planar.Grid(3, 20),
		planar.Cylinder(4, 8),
		planar.StackedTriangulation(120, rng),
		planar.NestedTriangles(10),
		planar.RemoveRandomEdges(planar.StackedTriangulation(80, rng), rng, 40),
	}
	half := 0
	for gi, g := range graphs {
		bd := buildOn(t, g, 14)
		for _, b := range bd.Bags {
			for _, d := range b.Darts {
				if b.Has(planar.Rev(d)) {
					continue
				}
				half++
				e := planar.EdgeOf(d)
				onAncestorSep := false
				for a := b.Parent; a != nil && !onAncestorSep; a = a.Parent {
					onAncestorSep = slices.Contains(a.SXEdges, e)
				}
				if !onAncestorSep {
					t.Fatalf("graph %d bag %d: edge %d has one dart in the bag and is on no ancestor's S_X", gi, b.ID, e)
				}
			}
		}
	}
	if half == 0 {
		t.Fatal("no bag holds a single dart of an edge: the rule was never exercised")
	}
}

func TestEdgeUnionProperty(t *testing.T) {
	// Property 6: X = union of child bags (as edge sets).
	g := planar.Grid(7, 9)
	bd := buildOn(t, g, 16)
	for _, b := range bd.Bags {
		if b.IsLeaf() {
			continue
		}
		union := make([]bool, g.M())
		for _, c := range b.Children {
			for e := range union {
				if c.HasEdge(e) {
					union[e] = true
				}
			}
		}
		for e := range union {
			if union[e] != b.HasEdge(e) {
				t.Fatalf("bag %d: edge %d union mismatch", b.ID, e)
			}
		}
	}
}

func TestEdgeInAtMostTwoBagsPerLevel(t *testing.T) {
	// Property 7.
	g := planar.Grid(9, 9)
	bd := buildOn(t, g, 16)
	byLevel := map[int][]*Bag{}
	for _, b := range bd.Bags {
		byLevel[b.Level] = append(byLevel[b.Level], b)
	}
	for lvl, bags := range byLevel {
		cnt := make([]int, g.M())
		for _, b := range bags {
			for e := 0; e < g.M(); e++ {
				if b.HasEdge(e) {
					cnt[e]++
				}
			}
		}
		for e, c := range cnt {
			if c > 2 {
				t.Fatalf("level %d: edge %d in %d bags", lvl, e, c)
			}
		}
	}
}

func TestDepthLogarithmic(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {6, 20}, {16, 16}} {
		g := planar.Grid(dims[0], dims[1])
		bd := buildOn(t, g, 12)
		logm := bits.Len(uint(g.M()))
		if bd.Depth > 4*logm {
			t.Fatalf("grid %v: depth %d > 4*log m (%d)", dims, bd.Depth, logm)
		}
	}
}

func TestAtMostOneWholeFaceSplitPerBag(t *testing.T) {
	// Lemma 5.3: at most one face that is whole in X is partitioned between
	// X's children.
	rng := planar.NewRand(77)
	graphs := []*planar.Graph{
		planar.Grid(9, 9),
		planar.Cylinder(5, 9),
		planar.StackedTriangulation(120, rng),
		planar.RemoveRandomEdges(planar.StackedTriangulation(120, rng), rng, 60),
	}
	for gi, g := range graphs {
		bd := buildOn(t, g, 12)
		for _, b := range bd.Bags {
			if b.IsLeaf() {
				continue
			}
			splitWhole := 0
			for _, f := range b.Faces {
				if b.IsWhole(f) && slices.Contains(b.Children[0].Faces, f) && slices.Contains(b.Children[1].Faces, f) {
					splitWhole++
				}
			}
			if splitWhole > 1 {
				t.Fatalf("graph %d bag %d: %d whole faces split", gi, b.ID, splitWhole)
			}
			if splitWhole == 1 && b.Sep.EX.Real {
				t.Fatalf("graph %d bag %d: whole face split despite real e_X", gi, b.ID)
			}
		}
	}
}

func TestFacePartsLogarithmic(t *testing.T) {
	// Property 9: each bag contains O(log n) face-parts.
	g := planar.Grid(12, 12)
	bd := buildOn(t, g, 16)
	logn := bits.Len(uint(g.N()))
	if fp := bd.MaxFaceParts(); fp > 6*logn {
		t.Fatalf("max face-parts %d > 6*log n (%d)", fp, logn)
	}
}

func TestFXSeparatesDualBag(t *testing.T) {
	// Property 11 (Lemma 5.15): any dual arc of X* whose endpoints avoid FX
	// must lie entirely within one child bag; removing FX disconnects
	// cross-child paths.
	g := planar.Grid(8, 8)
	bd := buildOn(t, g, 16)
	fd := g.Faces()
	for _, b := range bd.Bags {
		if b.IsLeaf() {
			continue
		}
		fx := map[int]bool{}
		for _, f := range b.FX {
			fx[f] = true
		}
		b.DualArcs(g, func(d planar.Dart, from, to int) {
			if fx[from] || fx[to] {
				return
			}
			// Both endpoints outside FX: the arc must live in one child.
			inChild := false
			for _, c := range b.Children {
				if c.Has(d) && c.Has(planar.Rev(d)) &&
					slices.Contains(c.Faces, from) && slices.Contains(c.Faces, to) {
					inChild = true
				}
			}
			if !inChild {
				t.Fatalf("bag %d: dual arc %d->%d (dart %d) escapes children without touching FX",
					b.ID, from, to, d)
			}
		})
		_ = fd
	}
}

func TestSeparatorSizeScalesWithDepth(t *testing.T) {
	// Property 4 analogue: |S_X| = O(bag BFS depth); on grids this is Õ(D).
	g := planar.Grid(14, 14)
	bd := buildOn(t, g, 16)
	for _, b := range bd.Bags {
		if b.Sep == nil {
			continue
		}
		if len(b.Sep.CycleVertices) > 2*b.TreeDepth+2 {
			t.Fatalf("bag %d: |S_X|=%d depth=%d", b.ID, len(b.Sep.CycleVertices), b.TreeDepth)
		}
	}
}

func TestChildBagsConnected(t *testing.T) {
	g := planar.Grid(8, 10)
	bd := buildOn(t, g, 16)
	for _, b := range bd.Bags {
		// The bag's edge-subgraph must be connected.
		first := -1
		cnt := 0
		for e := 0; e < g.M(); e++ {
			if b.HasEdge(e) {
				cnt++
				if first == -1 {
					first = e
				}
			}
		}
		if first == -1 {
			t.Fatalf("bag %d empty", b.ID)
		}
		bfs := g.BFSWithin(g.Edge(first).U, func(d planar.Dart) bool { return b.HasEdge(planar.EdgeOf(d)) })
		reach := 0
		for e := 0; e < g.M(); e++ {
			if b.HasEdge(e) && bfs.Dist[g.Edge(e).U] >= 0 && bfs.Dist[g.Edge(e).V] >= 0 {
				reach++
			}
		}
		if reach != cnt {
			t.Fatalf("bag %d disconnected: %d/%d edges reachable", b.ID, reach, cnt)
		}
	}
}

func TestDualSXEdgesAreInXStar(t *testing.T) {
	g := planar.Grid(8, 8)
	bd := buildOn(t, g, 16)
	for _, b := range bd.Bags {
		for _, e := range b.DualSXEdges {
			if !b.Has(planar.ForwardDart(e)) || !b.Has(planar.BackwardDart(e)) {
				t.Fatalf("bag %d: dual S_X edge %d missing a dart", b.ID, e)
			}
		}
	}
}

// HasEdge reports whether edge e has at least one dart in the bag.
func (b *Bag) HasEdge(e int) bool {
	return b.Has(planar.ForwardDart(e)) || b.Has(planar.BackwardDart(e))
}
