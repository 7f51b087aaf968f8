package label_test

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/snapshot"
)

// TestPlanMatchesMapReference: the plan newPlan lays out — keys, separator,
// positions, DDG nodes, RepsOf by separator position, leaf skeletons, cross
// and zero arcs — equals the map-based derivation it replaced, position for
// position, every slice sized exactly, in both views, on grids, snakes,
// triangulations and edge-deleted subgraphs at several leaf limits, and on
// the tree restored from the grid5x6 snapshot fixture.
func TestPlanMatchesMapReference(t *testing.T) {
	rng := planar.NewRand(47)
	type tree struct {
		name string
		t    *bdd.BDD
	}
	var trees []tree
	for _, gr := range []struct {
		name string
		g    *planar.Graph
	}{
		{"grid8x9", planar.Grid(8, 9)},
		{"snake12x12", planar.BoustrophedonGrid(12, 12)},
		{"triangulation100", planar.StackedTriangulation(100, rng)},
		{"triangulation60-minus30", planar.RemoveRandomEdges(planar.StackedTriangulation(60, rng), rng, 30)},
		{"grid10x10-minus25", planar.RemoveRandomEdges(planar.Grid(10, 10), rng, 25)},
	} {
		for _, leaf := range []int{4, 8, 0} {
			trees = append(trees, tree{gr.name, bdd.Build(gr.g, leaf, ledger.New())})
		}
	}
	// The fixture's graph: snapshot's testGraph.
	g := planar.WithRandomWeights(planar.Grid(5, 6), planar.NewRand(7), 1, 9, 1, 16)
	data, err := os.ReadFile("../snapshot/testdata/grid5x6-v1.pfsnap")
	if err != nil {
		t.Fatal(err)
	}
	lengths := func(kind byte) ([]int64, error) { return label.UniformLengths(g, kind == 1), nil }
	c, err := snapshot.Decode(bytes.NewReader(data), g, lengths)
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, tree{"restored-grid5x6", c.Trees[0].Tree})
	for _, tr := range trees {
		for _, v := range []label.View{label.Dual, label.Primal} {
			if err := label.MatchesMapReference(v, tr.t); err != nil {
				t.Errorf("%s, leaf limit %d, %s view: %v", tr.name, tr.t.LeafLimit, v, err)
			}
		}
	}

	// Trees that do not hang together: both derivations refuse them, with
	// the same error. An internal bag's F_X gains a face the bag lacks, or
	// loses its first face.
	for _, breakFX := range []func(b *bdd.Bag, numFaces int){
		func(b *bdd.Bag, numFaces int) {
			for f := range numFaces {
				if !slices.Contains(b.Faces, f) {
					b.FX = append(slices.Clone(b.FX), f)
					return
				}
			}
		},
		func(b *bdd.Bag, _ int) { b.FX = slices.Clone(b.FX[1:]) },
	} {
		g := planar.StackedTriangulation(40, planar.NewRand(40))
		tr := bdd.Build(g, 8, ledger.New())
		breakFX(tr.Root.Children[0], g.Faces().NumFaces())
		if err := label.MatchesMapReference(label.Dual, tr); err != nil {
			t.Error(err)
		}
		if _, err := label.Layouts(label.Dual, tr); err == nil {
			t.Error("a tree that does not hang together has a layout")
		}
	}
}
