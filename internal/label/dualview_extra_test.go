package label_test

import (
	"slices"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

func TestLabelsOnNestedTriangles(t *testing.T) {
	// Worst-case diameter family with deep decompositions.
	rng := planar.NewRand(23)
	g := planar.NestedTriangles(10)
	checkAgainstBaseline(t, g, randomLengths(g, rng, 1, 40), 8)
}

func TestLabelsWithDeactivatedArcs(t *testing.T) {
	// Mixed Inf/finite lengths (the Miller–Naor residual pattern where the
	// dual becomes effectively directed).
	rng := planar.NewRand(29)
	for trial := 0; trial < 6; trial++ {
		g := planar.Grid(3+rng.IntN(3), 3+rng.IntN(3))
		lens := make([]int64, g.NumDarts())
		for d := range lens {
			if rng.IntN(4) == 0 {
				lens[d] = spath.Inf
			} else {
				lens[d] = rng.Int64N(30)
			}
		}
		checkAgainstBaseline(t, g, lens, 8)
	}
}

func TestDDGStructure(t *testing.T) {
	g := planar.Grid(8, 8)
	led := ledger.New()
	tree := bdd.Build(g, 16, led)
	la := label.Compute(label.Dual, tree, label.UniformLengths(g, false), led)
	if la.NegCycle {
		t.Fatal("unexpected negative cycle")
	}
	_, ddgs := la.State()
	for _, b := range tree.Bags {
		if b.IsLeaf() {
			if ddgs[b.ID] != nil {
				t.Fatalf("leaf bag %d has a DDG", b.ID)
			}
			continue
		}
		ddg := ddgs[b.ID]
		if ddg == nil {
			t.Fatalf("bag %d missing DDG", b.ID)
		}
		// Every node represents an FX face inside a child containing it.
		fx := map[int]bool{}
		for _, f := range b.FX {
			fx[f] = true
		}
		for _, nd := range ddg.Nodes {
			if !fx[nd.Key] {
				t.Fatalf("bag %d: DDG node for non-FX face %d", b.ID, nd.Key)
			}
			if !slices.Contains(b.Children[nd.Child].Faces, nd.Key) {
				t.Fatalf("bag %d: DDG node (%d,%d) not in child", b.ID, nd.Child, nd.Key)
			}
		}
		// Separator arcs carry real darts of dual S_X edges; zero/clique
		// arcs carry NoDart.
		for _, a := range ddg.Arcs {
			if a.Dart != int32(planar.NoDart) {
				e := planar.EdgeOf(planar.Dart(a.Dart))
				found := false
				for _, se := range b.DualSXEdges {
					if se == e {
						found = true
					}
				}
				if !found {
					t.Fatalf("bag %d: separator arc for non-S_X edge %d", b.ID, e)
				}
			}
			if a.Len < 0 {
				t.Fatalf("bag %d: negative DDG arc with non-negative lengths", b.ID)
			}
		}
		// The distance matrix is internally consistent (triangle
		// inequality over explicit arcs).
		for _, a := range ddg.Arcs {
			for k := range ddg.Nodes {
				if ddg.Dist[k][a.From] < spath.Inf && ddg.Dist[k][a.From]+a.Len < ddg.Dist[k][a.To] {
					t.Fatalf("bag %d: matrix violates arc relaxation", b.ID)
				}
			}
		}
	}
}

func TestLabelWordsAccounting(t *testing.T) {
	g := planar.Grid(6, 6)
	led := ledger.New()
	tree := bdd.Build(g, 10, led)
	la := label.Compute(label.Dual, tree, label.UniformLengths(g, false), led)
	for f := 0; f < g.Faces().NumFaces(); f++ {
		l := la.RootLabel(f)
		// Words must count both the local To/From entries and the
		// recursive tail.
		want := 2 + 2*(len(l.To())+len(l.From()))
		if l.Child != nil {
			want += l.Child.Words()
		}
		if l.LeafTo() != nil {
			want += 2 * len(l.LeafTo())
		}
		if l.Words() != want {
			t.Fatalf("face %d: words=%d want %d", f, l.Words(), want)
		}
	}
}

func TestSSSPFromEveryFaceSmall(t *testing.T) {
	rng := planar.NewRand(31)
	g := planar.Cylinder(2, 5)
	lens := randomLengths(g, rng, 1, 15)
	led := ledger.New()
	tree := bdd.Build(g, 8, led)
	la := label.Compute(label.Dual, tree, lens, led)
	want, _ := explicitDualDist(g, lens)
	for src := 0; src < g.Faces().NumFaces(); src++ {
		res := la.SSSP(src, led)
		for f, d := range res.Dist {
			if d != want[src][f] {
				t.Fatalf("src=%d dist[%d]=%d want %d", src, f, d, want[src][f])
			}
		}
		if !verifyTree(g, lens, res) {
			t.Fatalf("src=%d: tree invalid", src)
		}
	}
}
