package label

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// lengthVectors returns, for g: random positive lengths, face-potential-
// shifted mixed-sign lengths without a negative dual cycle, those same
// lengths with one dart pushed below the negation of its reverse (a
// negative 2-cycle in either view, inside a leaf or across a separator as
// the dart falls), and uniformly random lengths in [-10, 10]. The face
// potentials mostly close negative cycles in the primal, so that view also
// gets three vectors it can label: a 0/Inf residual pattern (core.MinSTCut's),
// a weighted one, and vertex-potential-shifted mixed-sign lengths.
func lengthVectors(g *planar.Graph, rng *rand.Rand, v View) []namedLengths {
	du := g.Dual()
	phi := make([]int64, du.NumNodes())
	for f := range phi {
		phi[f] = rng.Int64N(60)
	}
	mixed := make([]int64, g.NumDarts())
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		mixed[d] = 1 + rng.Int64N(20) + phi[du.Tail(d)] - phi[du.Head(d)]
	}
	negCycle := append([]int64(nil), mixed...)
	d := planar.Dart(rng.IntN(g.NumDarts()))
	negCycle[d] = -negCycle[planar.Rev(d)] - 1
	vecs := []namedLengths{
		{"positive", randomLengths(g, rng, 1, 50)},
		{"mixed", mixed},
		{"neg-cycle", negCycle},
		{"random", randomLengths(g, rng, -10, 10)},
	}
	if v != Primal {
		return vecs
	}
	residual := func(hi int64) []int64 {
		lens := make([]int64, g.NumDarts())
		for d := range lens {
			if lens[d] = spath.Inf; rng.IntN(3) > 0 {
				lens[d] = rng.Int64N(hi)
			}
		}
		return lens
	}
	psi := make([]int64, g.N())
	for u := range psi {
		psi[u] = rng.Int64N(60)
	}
	vmixed := make([]int64, g.NumDarts())
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		vmixed[d] = 1 + rng.Int64N(20) + psi[g.Tail(d)] - psi[g.Head(d)]
	}
	return append(vecs,
		namedLengths{"residual", residual(1)},
		namedLengths{"weighted-residual", residual(20)},
		namedLengths{"vertex-mixed", vmixed})
}

func randomLengths(g *planar.Graph, rng *rand.Rand, lo, hi int64) []int64 {
	lens := make([]int64, g.NumDarts())
	for d := range lens {
		lens[d] = lo + rng.Int64N(hi-lo+1)
	}
	return lens
}

// mustPlan is planOf on a tree bdd.Build produced, which always has a plan.
func mustPlan(t testing.TB, tree *bdd.BDD, v View) *plan {
	t.Helper()
	pl, err := planOf(tree, views[v])
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

type namedLengths struct {
	name string
	lens []int64
}

// forEachLabelingCase runs fn on every view × graph × leaf limit ×
// lengthVectors case of the differential tests, plus a one-bag tree (the
// root is a leaf). Each view draws from its own stream, so the cases of one
// do not shift when the other gains a vector.
func forEachLabelingCase(fn func(name string, v View, tree *bdd.BDD, nl namedLengths)) {
	for _, v := range []View{Dual, Primal} {
		rng := planar.NewRand(29)
		graphs := []struct {
			name string
			g    *planar.Graph
		}{
			{"grid5x6", planar.Grid(5, 6)},
			{"grid9x9", planar.Grid(9, 9)},
			{"triangulation40", planar.StackedTriangulation(40, rng)},
			{"triangulation120", planar.StackedTriangulation(120, rng)},
			{"snake7x7", planar.BoustrophedonGrid(7, 7)},
		}
		for _, gr := range graphs {
			for _, leafLimit := range []int{8, 0} {
				tree := bdd.Build(gr.g, leafLimit, ledger.New())
				for _, nl := range lengthVectors(gr.g, rng, v) {
					fn(v.String()+"/"+gr.name, v, tree, nl)
				}
			}
		}
		g := planar.Grid(3, 4)
		tree := bdd.Build(g, 1000, ledger.New())
		for _, nl := range lengthVectors(g, rng, v) {
			fn(v.String()+"/onebag3x4", v, tree, nl)
		}
	}
}

// TestProbeMatchesFullLabeling holds the probe to the labeling pass it
// stands for, in both views, on every labeling case: Feasible's verdict is
// the full labeling's, it charges the same entries, and an infeasible probe
// finds the bag the pass aborted at (checkProbe).
func TestProbeMatchesFullLabeling(t *testing.T) {
	verdicts := map[View]map[bool]int{Dual: {}, Primal: {}}
	forEachLabelingCase(func(gname string, v View, tree *bdd.BDD, nl namedLengths) {
		name := gname + "/" + nl.name
		abort := checkProbe(t, name, mustPlan(t, tree, v), nl.lens)
		if nl.name == "neg-cycle" && abort < 0 {
			t.Fatalf("%s: negative 2-cycle not reported", name)
		}
		verdicts[v][abort >= 0]++
	})
	for _, v := range []View{Dual, Primal} {
		if verdicts[v][true] == 0 || verdicts[v][false] == 0 {
			t.Fatalf("%s: verdicts not both exercised: %v", v, verdicts[v])
		}
	}
}

// TestSourceDirectedMatchesFullSSSP checks, for every case and source key,
// that SSSPFrom is SSSP over the full labeling: same distances, tree
// darts, verdict and ledger entries, the pass charging what the full
// labeling charges.
func TestSourceDirectedMatchesFullSSSP(t *testing.T) {
	ctx := context.Background()
	type tally struct{ oneBag, inRootSep, negCycles int }
	seen := map[View]*tally{Dual: {}, Primal: {}}
	forEachLabelingCase(func(gname string, v View, tree *bdd.BDD, nl namedLengths) {
		name := gname + "/" + nl.name
		pl := mustPlan(t, tree, v)
		n := seen[v]
		fullLed := ledger.New()
		full, err := ComputeContext(ctx, v, tree, nl.lens, fullLed)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Root.IsLeaf() {
			n.oneBag++
		}
		if full.NegCycle {
			n.negCycles++
		}
		rootSep := map[int]bool{}
		for _, k := range pl.lay[tree.Root.ID].Sep {
			rootSep[k] = true
		}
		sources := pl.lay[tree.Root.ID].Keys
		for i, source := range sources {
			// Every face, and every vertex of the small graphs; every fourth
			// vertex of the larger ones.
			if v == Primal && len(sources) > 48 && i%4 != 0 {
				continue
			}
			if rootSep[source] {
				n.inRootSep++
			}
			wantLed, passLed, gotLed := ledger.New(), ledger.New(), ledger.New()
			want := full.SSSP(source, wantLed)
			got, err := SSSPFrom(ctx, v, tree, nl.lens, source, passLed, gotLed)
			if err != nil {
				t.Fatalf("%s: source %d: %v", name, source, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: source %d: SSSPFrom differs from SSSP over the full labeling", name, source)
			}
			if !reflect.DeepEqual(gotLed.Entries(), wantLed.Entries()) {
				t.Fatalf("%s: source %d: ledgers differ:\nSSSPFrom %v\n    full %v", name, source, gotLed.Entries(), wantLed.Entries())
			}
			if !reflect.DeepEqual(passLed.Entries(), fullLed.Entries()) {
				t.Fatalf("%s: source %d: pass ledgers differ:\nSSSPFrom %v\n    full %v", name, source, passLed.Entries(), fullLed.Entries())
			}
			if !full.NegCycle && views[v].marksTree && !verifyTree(full, got) {
				t.Fatalf("%s: source %d: marked tree does not realize the distances", name, source)
			}
		}

		canceled, cancel := context.WithCancel(ctx)
		cancel()
		passLed, led := ledger.New(), ledger.New()
		if res, err := SSSPFrom(canceled, v, tree, nl.lens, pl.lay[tree.Root.ID].Keys[0], passLed, led); err != context.Canceled || res != nil {
			t.Fatalf("%s: canceled SSSPFrom returned %v, %v", name, res, err)
		}
		if len(led.Entries())+len(passLed.Entries()) != 0 {
			t.Fatalf("%s: canceled SSSPFrom charged %v %v", name, passLed.Entries(), led.Entries())
		}
	})
	for v, n := range seen {
		if n.oneBag == 0 || n.inRootSep == 0 || n.negCycles == 0 {
			t.Fatalf("%s: cases not all exercised: %+v", v, *n)
		}
	}
}

// cancelAfter is a context whose Err reports cancellation from its n+1-th
// call on: a drive polled before every bag stops at bag n.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestSourceDirectedEdgeCases pins the branches of SSSPFrom's route that most
// sources never take, each against Compute(...).SSSP(...) on the same case:
//   - a source with no label. A connected planar.Graph has no vertex without
//     a dart, so the key one past the last stands in for one: it is outside
//     the root's keys, as such a vertex is, and both routes answer all-Inf
//     with the broadcast charged at 0 words;
//   - a one-bag tree, whose pass charges its one level;
//   - a negative cycle, where the search for the abort bag charges the full
//     labeling's abort entry and the SSSP nothing;
//   - a context canceled partway through the drive, or, under a negative
//     cycle, where no drive runs, at the first bag the search for the abort
//     bag polls or at the abort bag itself, which charges nothing.
func TestSourceDirectedEdgeCases(t *testing.T) {
	type tally struct{ noLabel, oneBag, negCycles, canceledDrive, canceledAbortSearch int }
	seen := map[View]*tally{Dual: {}, Primal: {}}
	forEachLabelingCase(func(gname string, v View, tree *bdd.BDD, nl namedLengths) {
		name := gname + "/" + nl.name
		n, vw := seen[v], views[v]
		fullLed := ledger.New()
		full := Compute(v, tree, nl.lens, fullLed)

		source := vw.numKeys(tree.G)
		wantLed, passLed, gotLed := ledger.New(), ledger.New(), ledger.New()
		want := full.SSSP(source, wantLed)
		got, err := SSSPFrom(context.Background(), v, tree, nl.lens, source, passLed, gotLed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLed.Entries(), wantLed.Entries()) ||
			!reflect.DeepEqual(passLed.Entries(), fullLed.Entries()) {
			t.Fatalf("%s: unlabelled source: SSSPFrom %+v charged %v %v, full labeling %+v charged %v %v",
				name, got, passLed.Entries(), gotLed.Entries(), want, fullLed.Entries(), wantLed.Entries())
		}
		switch {
		case full.NegCycle:
			n.negCycles++
			if e := passLed.Entries(); len(e) != 1 || e[0].Phase != vw.phase+"/negative-cycle-abort" || len(gotLed.Entries()) != 0 || !got.NegCycle {
				t.Fatalf("%s: negative cycle charged %v %v", name, e, gotLed.Entries())
			}
		default:
			n.noLabel++
			for k, d := range got.Dist {
				if d != spath.Inf {
					t.Fatalf("%s: unlabelled source reaches key %d at %d", name, k, d)
				}
			}
			if r := gotLed.ByPhase()[vw.broadcastPhase]; r != int64(tree.Root.TreeDepth) {
				t.Fatalf("%s: unlabelled source's broadcast charged %d rounds, want %d", name, r, tree.Root.TreeDepth)
			}
			if tree.Root.IsLeaf() {
				n.oneBag++
				if e := passLed.Entries(); len(e) != 1 || e[0].Phase != vw.phase+"/level-00" {
					t.Fatalf("%s: one-bag pass charged %v", name, e)
				}
			}
		}

		// Stop the drive halfway up the tree; under a negative cycle, the
		// search for the abort bag at the last bag and at the abort bag,
		// its first and its last poll (the same one when the last bag is
		// where the pass aborts).
		stops := []int{len(tree.Bags) / 2}
		if full.NegCycle {
			stops = []int{0, len(tree.Bags) - 1 - fullAbort(full)}
		}
		for _, stop := range stops {
			passLed, led := ledger.New(), ledger.New()
			ctx := &cancelAfter{context.Background(), stop}
			if res, err := SSSPFrom(ctx, v, tree, nl.lens, 0, passLed, led); err != context.Canceled || res != nil {
				t.Fatalf("%s: canceled after %d bags: SSSPFrom returned %v, %v", name, stop, res, err)
			}
			if len(passLed.Entries())+len(led.Entries()) != 0 {
				t.Fatalf("%s: canceled after %d bags: charged %v %v", name, stop, passLed.Entries(), led.Entries())
			}
			if full.NegCycle {
				n.canceledAbortSearch++
			} else {
				n.canceledDrive++
			}
		}
	})
	for v, n := range seen {
		if n.noLabel == 0 || n.oneBag == 0 || n.negCycles == 0 || n.canceledDrive == 0 || n.canceledAbortSearch == 0 {
			t.Fatalf("%s: cases not all exercised: %+v", v, *n)
		}
	}
}

// verifyTree checks that the marked tree darts realize the distances.
func verifyTree(la *Labeling, res *SSSPResult) bool {
	for k := range res.Dist {
		if k == res.Source || res.Dist[k] >= spath.Inf {
			continue
		}
		d := res.TreeDart[k]
		if d == planar.NoDart {
			return false
		}
		from, to := la.pl.v.ends(la.T.G, d)
		if to != k || res.Dist[from]+la.Lengths[d] != res.Dist[k] {
			return false
		}
	}
	return true
}
