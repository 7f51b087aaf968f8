package bdd

import (
	"slices"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

func TestKnowledgeOnFamilies(t *testing.T) {
	rng := planar.NewRand(19)
	graphs := []*planar.Graph{
		planar.Grid(8, 8),
		planar.Grid(3, 20),
		planar.Cylinder(4, 8),
		planar.StackedTriangulation(120, rng),
		planar.NestedTriangles(10),
		planar.RemoveRandomEdges(planar.StackedTriangulation(80, rng), rng, 40),
	}
	for gi, g := range graphs {
		led := ledger.New()
		tree := Build(g, 14, led)
		before := led.Total()
		k := BuildKnowledge(tree, led)
		if led.Total() <= before {
			t.Fatalf("graph %d: knowledge acquisition charged nothing", gi)
		}
		if err := k.Verify(); err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
	}
}

func TestKnowledgeBagChainsCoverLevels(t *testing.T) {
	g := planar.Grid(7, 7)
	tree := Build(g, 12, ledger.New())
	k := BuildKnowledge(tree, ledger.New())
	// Each dart's chain ends at a leaf bag.
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		chain := k.BagChain[d]
		last := tree.Bags[chain[len(chain)-1]]
		if !last.IsLeaf() {
			// A dart's chain may stop early only if its bag stopped
			// splitting; that bag is by definition a leaf.
			t.Fatalf("dart %d chain ends at non-leaf bag %d", d, last.ID)
		}
	}
}

func TestKnowledgeCriticalMatchesSplitFaces(t *testing.T) {
	g := planar.Grid(9, 9)
	tree := Build(g, 16, ledger.New())
	k := BuildKnowledge(tree, ledger.New())
	for _, b := range tree.Bags {
		if b.IsLeaf() {
			if k.Critical[b.ID] != -1 {
				t.Fatalf("leaf bag %d has critical face", b.ID)
			}
			continue
		}
		// Count whole faces split across children; must match Critical.
		crit := -1
		for _, f := range b.Faces {
			if b.IsWhole(f) && slices.Contains(b.Children[0].Faces, f) && slices.Contains(b.Children[1].Faces, f) {
				crit = f
			}
		}
		if crit != k.Critical[b.ID] {
			t.Fatalf("bag %d: critical=%d knowledge=%d", b.ID, crit, k.Critical[b.ID])
		}
	}
}
