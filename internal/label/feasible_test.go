package label

import (
	"context"
	"reflect"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// capacityLengths is the λ = 0 residual of Miller–Naor's search: Cap on the
// forward dart, 0 on the backward one.
func capacityLengths(g *planar.Graph) []int64 {
	lens := make([]int64, g.NumDarts())
	for e := 0; e < g.M(); e++ {
		lens[planar.ForwardDart(e)] = g.Edge(e).Cap
	}
	return lens
}

// pushed returns base with lambda pushed along path: minus lambda on each
// path dart, plus lambda on its reverse.
func pushed(base []int64, path []planar.Dart, lambda int64) []int64 {
	lens := append([]int64(nil), base...)
	for _, d := range path {
		lens[d] -= lambda
		lens[planar.Rev(d)] += lambda
	}
	return lens
}

// bfsPath is an s-to-t path of darts along an undirected BFS tree.
func bfsPath(g *planar.Graph, s, t int) []planar.Dart {
	b := g.BFS(s)
	var path []planar.Dart
	for v := t; v != s; v = g.Tail(b.Parent[v]) {
		path = append(path, b.Parent[v])
	}
	return path
}

// fullAbort is the bag a full labeling's pass aborted at — the largest ID
// it left unlabelled — or -1 when it completed.
func fullAbort(la *Labeling) int {
	for id := len(la.byBag) - 1; la.NegCycle && id >= 0; id-- {
		if la.byBag[id] == nil {
			return id
		}
	}
	return -1
}

// checkProbe holds Feasible over pl to ComputeContext under lens: the same
// verdict, the same ledger entries, and, when infeasible, abortBag names the
// bag the full labeling's pass aborted at. It returns that bag, or -1.
func checkProbe(t *testing.T, name string, pl *plan, lens []int64) int {
	t.Helper()
	ctx := context.Background()
	fullLed, led := ledger.New(), ledger.New()
	full, err := ComputeContext(ctx, pl.v.id, pl.t, lens, fullLed)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Feasible(ctx, pl.v.id, pl.t, lens, led)
	if err != nil || ok == full.NegCycle {
		t.Fatalf("%s: Feasible=%v err=%v with NegCycle=%v", name, ok, err, full.NegCycle)
	}
	if !reflect.DeepEqual(led.Entries(), fullLed.Entries()) {
		t.Fatalf("%s: ledgers differ:\nprobe %v\n full %v", name, led.Entries(), fullLed.Entries())
	}
	want := fullAbort(full)
	var k kernel
	got, err := pl.probeLengths(ctx, &k, lens, ledger.New())
	if err != nil || got != want {
		t.Fatalf("%s: abort bag %d (err %v), the full labeling aborted at %d", name, got, err, want)
	}
	return want
}

// checkSearch holds the search's probe at lambda to ComputeContext under
// lens, base with lambda pushed along the search's path, as checkProbe
// holds Feasible: the same verdict, the same ledger entries and the same
// abort bag, which it returns (-1 when feasible).
func checkSearch(t *testing.T, name string, s *Search, lambda int64, lens []int64) int {
	t.Helper()
	ctx := context.Background()
	fullLed, led := ledger.New(), ledger.New()
	full, err := ComputeContext(ctx, Dual, s.pl.t, lens, fullLed)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Feasible(ctx, lambda, led)
	if err != nil || ok == full.NegCycle {
		t.Fatalf("%s: search at λ=%d: feasible=%v err=%v with NegCycle=%v", name, lambda, ok, err, full.NegCycle)
	}
	if !reflect.DeepEqual(led.Entries(), fullLed.Entries()) {
		t.Fatalf("%s: search at λ=%d: ledgers differ:\nsearch %v\n  full %v", name, lambda, led.Entries(), fullLed.Entries())
	}
	want := fullAbort(full)
	if !ok && s.abort != want {
		t.Fatalf("%s: search at λ=%d: abort bag %d, the full labeling aborted at %d", name, lambda, s.abort, want)
	}
	return want
}

// checkSearchSSSP holds the search's SSSP at lambda, its last feasible λ,
// to ComputeContext(lens).SSSP(0): the same distances and ledger entries,
// and no tree darts — the search charges the marking but skips it.
func checkSearchSSSP(t *testing.T, name string, s *Search, lambda int64, lens []int64) {
	t.Helper()
	led, wantLed := ledger.New(), ledger.New()
	got, err := s.SSSP(context.Background(), lambda, 0, led)
	if err != nil {
		t.Fatalf("%s: search SSSP at λ=%d: %v", name, lambda, err)
	}
	want := Compute(Dual, s.pl.t, lens, ledger.New()).SSSP(0, wantLed)
	if !reflect.DeepEqual(got.Dist, want.Dist) || got.TreeDart != nil ||
		!reflect.DeepEqual(led.Entries(), wantLed.Entries()) {
		t.Fatalf("%s: search SSSP at λ=%d differs from the full labeling's:\n%v %v %v\n%v %v", name, lambda,
			got.Dist, got.TreeDart, led.Entries(), want.Dist, wantLed.Entries())
	}
}

// sharedInSeparator checks the plan's layout against the tree: every key
// both children of a bag hold is in its separator, and in the dual view a
// bag's keys are its faces and its separator is F_X.
func sharedInSeparator(t *testing.T, name string, pl *plan) {
	t.Helper()
	for _, b := range pl.t.Bags {
		lay := &pl.lay[b.ID]
		if pl.v.id == Dual && (!reflect.DeepEqual(lay.Keys, b.Faces) || !b.IsLeaf() && !reflect.DeepEqual(lay.Sep, b.FX)) {
			t.Fatalf("%s: bag %d: dual keys are not its faces or the separator is not F_X", name, b.ID)
		}
		if b.IsLeaf() {
			continue
		}
		other := pl.lay[b.Children[1].ID]
		for _, k := range pl.lay[b.Children[0].ID].Keys {
			if find(other.Keys, other.KeyOrder, k) >= 0 && find(lay.Sep, lay.SepOrder, k) < 0 {
				t.Fatalf("%s: bag %d: key %d is in both children, not in the separator", name, b.ID, k)
			}
		}
	}
}

// TestFeasibleMatchesFullLabeling holds Feasible to ComputeContext the way
// core.MaxFlow's λ search drives it — capacity lengths with λ pushed along
// a BFS s–t path, at λ ∈ {1, λ*, λ*+1, U} — and on random mixed-sign
// lengths, in the dual view and in the primal (the abort search serves
// SSSPFrom in both), over six graph families at leaf limits 4, 8 and the
// default: same verdict, same ledger entries and, when infeasible, the same
// abort bag (checkProbe). In the dual every such λ also runs through one
// Search per pair, in that order, so a λ follows aborts that loaded bags'
// own graphs into its kernel, and the search must give the same verdict,
// entries and abort bag (checkSearch); at λ*, its last feasible λ, its SSSP
// must be the full labeling's (checkSearchSSSP). Aborts must land on a
// leaf, on an internal bag that is not the root, and on the root. The abort
// search rests on each separator holding every key both children hold
// (sharedInSeparator); in the dual the keys are Bag.Faces and the separator
// is F_X.
func TestFeasibleMatchesFullLabeling(t *testing.T) {
	rng := planar.NewRand(41)
	graphs := []struct {
		name string
		g    *planar.Graph
	}{
		{"grid9x9", planar.Grid(9, 9)},
		{"cylinder6x8", planar.Cylinder(6, 8)},
		{"triangulation80", planar.StackedTriangulation(80, rng)},
		{"snake8x8", planar.BoustrophedonGrid(8, 8)},
		{"nested6", planar.NestedTriangles(6)},
		{"grid10x10-minus25", planar.RemoveRandomEdges(planar.Grid(10, 10), rng, 25)},
		{"triangulation100-minus60", planar.RemoveRandomEdges(planar.StackedTriangulation(100, rng), rng, 60)},
	}
	var feasible, infeasible, leaf, internal, root int
	tally := func(tree *bdd.BDD, abort int) {
		switch {
		case abort < 0:
			feasible++
			return
		case abort == tree.Root.ID:
			root++
		case tree.Bags[abort].IsLeaf():
			leaf++
		default:
			internal++
		}
		infeasible++
	}
	for _, gr := range graphs {
		g := planar.WithRandomDirections(planar.WithRandomWeights(gr.g, rng, 1, 1, 0, 9), rng)
		capLens := capacityLengths(g)
		for _, leafLimit := range []int{4, 8, 0} {
			tree := bdd.Build(g, leafLimit, ledger.New())
			for _, v := range []View{Dual, Primal} {
				pl := mustPlan(t, tree, v)
				name := v.String() + "/" + gr.name
				sharedInSeparator(t, name, pl)
				for pair := 0; pair < 4; pair++ {
					s, tt := rng.IntN(g.N()), rng.IntN(g.N())
					if s == tt {
						continue
					}
					fn := spath.NewFlowNetwork(g.N())
					var out, in int64
					for e := 0; e < g.M(); e++ {
						ed := g.Edge(e)
						fn.AddEdge(ed.U, ed.V, ed.Cap, e)
						if ed.U == s {
							out += ed.Cap
						}
						if ed.V == tt {
							in += ed.Cap
						}
					}
					star := fn.MaxFlow(s, tt)
					path := bfsPath(g, s, tt)
					var search *Search
					if v == Dual {
						base, err := Gather(Dual, tree, capLens)
						if err != nil {
							t.Fatal(err)
						}
						if search, err = NewSearch(base, path); err != nil {
							t.Fatal(err)
						}
					}
					for _, lambda := range []int64{1, star, star + 1, min(out, in)} {
						lens := pushed(capLens, path, lambda)
						abort := checkProbe(t, name, pl, lens)
						if v == Dual && (lambda <= star) != (abort < 0) {
							t.Fatalf("%s s=%d t=%d λ=%d (λ*=%d): abort bag %d", name, s, tt, lambda, star, abort)
						}
						if search != nil {
							checkSearch(t, name, search, lambda, lens)
						}
						tally(tree, abort)
					}
					if search != nil {
						checkSearchSSSP(t, name, search, star, pushed(capLens, path, star))
						search.Close()
					}
				}
				for i := 0; i < 4; i++ {
					tally(tree, checkProbe(t, name+"/random", pl, randomLengths(g, rng, -2, 20)))
				}
			}
		}
	}
	t.Logf("%d feasible and %d infeasible probes; aborts on %d leaves, %d internal bags, %d roots", feasible, infeasible, leaf, internal, root)
	if feasible == 0 || leaf == 0 || internal == 0 || root == 0 {
		t.Fatal("the cases do not exercise both verdicts and every kind of abort bag")
	}
}
