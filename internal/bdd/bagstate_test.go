package bdd_test

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/separator"
	"planarflow/internal/snapshot"
)

// refBag is a bag's state as the decomposition kept it when every bag held
// whole-graph bitmaps, face maps and its separator's per-dart side array,
// derived verbatim as that builder derived it from the bag's darts.
type refBag struct {
	inBag     []bool // by dart
	edgeIn    []bool // by edge
	faces     []int
	faceSet   map[int]bool
	whole     map[int]bool
	treeDepth int

	// Non-leaf bags: the separator rerun on the bag, and what the split
	// derived from it.
	side        []int8 // by dart
	sxEdges     []int
	dualSXEdges []int
	fx          []int
}

// refDerived is the old fillDerived, plus the old split's separator call
// (its own BFS from the tail of the bag's first edge).
func refDerived(g *planar.Graph, b *bdd.Bag) *refBag {
	fd := g.Faces()
	r := &refBag{inBag: make([]bool, g.NumDarts()), edgeIn: make([]bool, g.M()), faceSet: map[int]bool{}}
	faceDarts := map[int]int{}
	for _, d := range b.Darts {
		r.inBag[d] = true
		r.edgeIn[planar.EdgeOf(d)] = true
		f := fd.FaceOf(d)
		if !r.faceSet[f] {
			r.faceSet[f] = true
			r.faces = append(r.faces, f)
		}
		faceDarts[f]++
	}
	r.whole = make(map[int]bool, len(r.faces))
	for _, f := range r.faces {
		r.whole[f] = faceDarts[f] == fd.Len(f)
	}
	for e := 0; e < g.M(); e++ {
		if r.edgeIn[e] {
			bfs := g.BFSWithin(g.Edge(e).U, func(d planar.Dart) bool { return r.edgeIn[planar.EdgeOf(d)] })
			r.treeDepth = bfs.Depth
			if !b.IsLeaf() {
				sep := separator.FindCycleSeparator(g, r.edgeIn, planar.NewSubFaces(g, r.edgeIn), bfs, nil)
				r.side = sep.Side
				r.sxEdges = sep.CycleEdges
			}
			break
		}
	}
	for _, e := range r.sxEdges {
		if r.inBag[planar.ForwardDart(e)] && r.inBag[planar.BackwardDart(e)] {
			r.dualSXEdges = append(r.dualSXEdges, e)
		}
	}
	return r
}

// refFX is the old split's F_X over the reference states of a bag and its
// children.
func refFX(g *planar.Graph, r, c0, c1 *refBag) []int {
	fd := g.Faces()
	fx := map[int]bool{}
	for _, e := range r.dualSXEdges {
		fx[fd.FaceOf(planar.ForwardDart(e))] = true
		fx[fd.FaceOf(planar.BackwardDart(e))] = true
	}
	for _, f := range r.faces {
		if c0.faceSet[f] && c1.faceSet[f] {
			fx[f] = true
		}
	}
	var out []int
	for f := range fx {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// checkBagState holds every bag of tree to its reference state.
func checkBagState(t *testing.T, name string, g *planar.Graph, tree *bdd.BDD) {
	t.Helper()
	refs := make([]*refBag, len(tree.Bags))
	for i, b := range tree.Bags {
		refs[i] = refDerived(g, b)
	}
	for i, b := range tree.Bags {
		r := refs[i]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s bag %d: %s", name, b.ID, fmt.Sprintf(format, args...))
		}
		for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
			if b.Has(d) != r.inBag[d] {
				fail("Has(%d) = %v", d, b.Has(d))
			}
		}
		edges := 0
		for e := 0; e < g.M(); e++ {
			if b.HasEdge(e) != r.edgeIn[e] {
				fail("HasEdge(%d) = %v", e, b.HasEdge(e))
			}
			if r.edgeIn[e] {
				edges++
			}
		}
		if b.NumEdges() != edges {
			fail("NumEdges %d, want %d", b.NumEdges(), edges)
		}
		if !slices.Equal(b.Faces, r.faces) {
			fail("Faces %v, want %v", b.Faces, r.faces)
		}
		for f := 0; f < g.Faces().NumFaces(); f++ {
			if b.IsWhole(f) != r.whole[f] {
				fail("IsWhole(%d) = %v", f, b.IsWhole(f))
			}
		}
		if b.TreeDepth != r.treeDepth {
			fail("TreeDepth %d, want %d", b.TreeDepth, r.treeDepth)
		}
		if b.IsLeaf() {
			for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
				if s := b.SideOf(d); s != -1 {
					fail("leaf SideOf(%d) = %d", d, s)
				}
			}
			continue
		}
		if b.Sep.Side != nil {
			fail("keeps its separator's per-dart side array")
		}
		if !slices.Equal(b.SXEdges, r.sxEdges) {
			fail("SXEdges %v, want %v", b.SXEdges, r.sxEdges)
		}
		if !slices.Equal(b.DualSXEdges, r.dualSXEdges) {
			fail("DualSXEdges %v, want %v", b.DualSXEdges, r.dualSXEdges)
		}
		if fx := refFX(g, r, refs[b.Children[0].ID], refs[b.Children[1].ID]); !slices.Equal(b.FX, fx) {
			fail("FX %v, want %v", b.FX, fx)
		}
		for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
			if s := b.SideOf(d); s != int(r.side[d]) {
				fail("SideOf(%d) = %d, want %d", d, s, r.side[d])
			}
		}
	}
}

type bagStateCase struct {
	name      string
	g         *planar.Graph
	leafLimit int
}

// bagStateGraphs is the differential test's corpus: 64 graphs over five
// families, each with one of the leaf limits 0 (the default), 6, 8 and 12.
func bagStateGraphs() []bagStateCase {
	var out []bagStateCase
	rng := planar.NewRand(34)
	add := func(name string, g *planar.Graph) {
		leaf := [...]int{0, 6, 8, 12}[len(out)%4]
		out = append(out, bagStateCase{fmt.Sprintf("%s/leaf%d", name, leaf), g, leaf})
	}
	for i := 0; i < 13; i++ {
		r, c := 3+i%5, 4+i%7
		add(fmt.Sprintf("grid%dx%d", r, c), planar.Grid(r, c))
		add(fmt.Sprintf("snake%dx%d", r, c), planar.BoustrophedonGrid(r, c))
		n := 10 + 7*i
		add(fmt.Sprintf("tri%d-%d", n, i), planar.StackedTriangulation(n, rng))
		add(fmt.Sprintf("dirtri%d-%d", n, i), planar.WithRandomDirections(planar.StackedTriangulation(n, rng), rng))
		if i < 12 {
			add(fmt.Sprintf("sparsetri%d-%d", n, i), planar.RemoveRandomEdges(planar.StackedTriangulation(n, rng), rng, n/2))
		}
	}
	return out
}

// TestBagStateMatchesReference: the bag-local state — dart bitset, edge
// count, face list with its face-parts, hole darts standing for the
// separator's sides — answers every question the whole-graph bitmaps and
// maps answered, bag for bag, on built trees and on trees restored from a
// snapshot.
func TestBagStateMatchesReference(t *testing.T) {
	graphs := bagStateGraphs()
	if len(graphs) < 60 {
		t.Fatalf("corpus has %d graphs, want at least 60", len(graphs))
	}
	for _, gr := range graphs {
		tree := bdd.Build(gr.g, gr.leafLimit, ledger.New())
		checkBagState(t, gr.name, gr.g, tree)

		var buf bytes.Buffer
		c := &snapshot.Contents{Trees: []snapshot.TreeEntry{{LeafLimit: tree.LeafLimit, Tree: tree}}}
		if err := snapshot.Encode(&buf, gr.g, c); err != nil {
			t.Fatal(err)
		}
		got, err := snapshot.Decode(&buf, gr.g, nil)
		if err != nil {
			t.Fatalf("%s: restore: %v", gr.name, err)
		}
		restored := got.Trees[0].Tree
		if len(restored.Bags) != len(tree.Bags) {
			t.Fatalf("%s: restored %d bags, built %d", gr.name, len(restored.Bags), len(tree.Bags))
		}
		checkBagState(t, gr.name+"/restored", gr.g, restored)
		if restored.FootprintBytes() != tree.FootprintBytes() {
			t.Fatalf("%s: restored footprint %d, built %d", gr.name, restored.FootprintBytes(), tree.FootprintBytes())
		}
	}
}
