package duallabel

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// lengthVectors returns, for g: random positive lengths, potential-shifted
// mixed-sign lengths without a negative cycle, those same lengths with one
// dart pushed below the negation of its reverse (a negative 2-cycle, inside
// a leaf or across a separator as the dart falls), and uniformly random
// lengths in [-10, 10].
func lengthVectors(g *planar.Graph, rng *rand.Rand) []namedLengths {
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
	return []namedLengths{
		{"positive", randomLengths(g, rng, 1, 50)},
		{"mixed", mixed},
		{"neg-cycle", negCycle},
		{"random", randomLengths(g, rng, -10, 10)},
	}
}

type namedLengths struct {
	name string
	lens []int64
}

// forEachLabelingCase runs fn on every graph × leaf limit × lengthVectors
// case of the differential tests, plus a one-bag tree (the root is a leaf).
func forEachLabelingCase(fn func(name string, tree *bdd.BDD, nl namedLengths)) {
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
			for _, nl := range lengthVectors(gr.g, rng) {
				fn(gr.name, tree, nl)
			}
		}
	}
	g := planar.Grid(3, 4)
	tree := bdd.Build(g, 1000, ledger.New())
	for _, nl := range lengthVectors(g, rng) {
		fn("onebag3x4", tree, nl)
	}
}

// TestProbeMatchesFullLabeling drives the one labeling pass with both of its
// wanted sets and checks that the probe is the full labeling restricted:
// same verdict, same ledger entries, and every label it holds equal to the
// full one map for map, down the Child chain.
func TestProbeMatchesFullLabeling(t *testing.T) {
	verdicts := map[bool]int{}
	skipped := 0
	forEachLabelingCase(func(gname string, tree *bdd.BDD, nl namedLengths) {
		pl := planOf(tree)
		lens, lname := nl.lens, nl.name
		fullLed, probeLed := ledger.New(), ledger.New()
		full, err := pl.label(context.Background(), pl.every, false, lens, fullLed)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := pl.label(context.Background(), pl.probe, false, lens, probeLed)
		if err != nil {
			t.Fatal(err)
		}
		name := gname + "/" + lname
		if probe.NegCycle != full.NegCycle {
			t.Fatalf("%s: probe NegCycle=%v, full labeling %v", name, probe.NegCycle, full.NegCycle)
		}
		if lname == "neg-cycle" && !full.NegCycle {
			t.Fatalf("%s: negative 2-cycle not reported", name)
		}
		if !reflect.DeepEqual(probeLed.Entries(), fullLed.Entries()) {
			t.Fatalf("%s: ledgers differ:\nprobe %v\n full %v", name, probeLed.Entries(), fullLed.Entries())
		}
		ok, err := Feasible(context.Background(), tree, lens, ledger.New())
		if err != nil || ok == full.NegCycle {
			t.Fatalf("%s: Feasible=%v err=%v with NegCycle=%v", name, ok, err, full.NegCycle)
		}
		verdicts[full.NegCycle]++

		for id, labels := range probe.byBag {
			if labels != nil && !full.NegCycle && len(labels) != len(pl.probe[id]) {
				t.Fatalf("%s: bag %d holds %d labels, wanted %d", name, id, len(labels), len(pl.probe[id]))
			}
			skipped += len(full.byBag[id]) - len(labels)
			for f, got := range labels {
				want := full.byBag[id][f]
				if want == nil {
					t.Fatalf("%s: bag %d face %d labeled by the probe only", name, id, f)
				}
				if !reflect.DeepEqual(got.To, want.To) || !reflect.DeepEqual(got.From, want.From) ||
					!reflect.DeepEqual(got.LeafTo, want.LeafTo) {
					t.Fatalf("%s: bag %d face %d: label maps differ", name, id, f)
				}
				if (got.Child == nil) != (want.Child == nil) {
					t.Fatalf("%s: bag %d face %d: Child presence differs", name, id, f)
				}
				if got.Child != nil {
					cid := want.Child.Bag.ID
					if got.Child.Bag.ID != cid || got.Child != probe.byBag[cid][f] {
						t.Fatalf("%s: bag %d face %d: Child is not the probe's label in bag %d", name, id, f, cid)
					}
				}
				if got.Words() != want.Words() {
					t.Fatalf("%s: bag %d face %d: Words %d vs %d", name, id, f, got.Words(), want.Words())
				}
			}
		}
	})
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts not both exercised: %v", verdicts)
	}
	if skipped == 0 {
		t.Fatal("the probe labeled every face the full labeling did")
	}
}

// TestSourceDirectedMatchesFullSSSP checks, for every case and every source
// face, that SSSPFrom is SSSP over the full labeling: same distances, tree
// darts, verdict and ledger entries. For every eighth source it also pins
// what the source-directed pass holds: full labels, equal to the full
// labeling's, exactly on the wanted faces, and From-only labels everywhere
// else.
func TestSourceDirectedMatchesFullSSSP(t *testing.T) {
	ctx := context.Background()
	var oneBag, inRootFX, negCycles, fromOnly int
	forEachLabelingCase(func(gname string, tree *bdd.BDD, nl namedLengths) {
		name := gname + "/" + nl.name
		pl := planOf(tree)
		full, err := ComputeContext(ctx, tree, nl.lens, ledger.New())
		if err != nil {
			t.Fatal(err)
		}
		if tree.Root.IsLeaf() {
			oneBag++
		}
		if full.NegCycle {
			negCycles++
		}
		rootFX := map[int]bool{}
		for _, f := range tree.Root.FX {
			rootFX[f] = true
		}
		for i, source := range tree.Root.Faces {
			if rootFX[source] {
				inRootFX++
			}
			wantLed, gotLed := ledger.New(), ledger.New()
			want := full.SSSP(source, wantLed)
			got, err := SSSPFrom(ctx, tree, nl.lens, source, gotLed)
			if err != nil {
				t.Fatalf("%s: source %d: %v", name, source, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: source %d: SSSPFrom differs from SSSP over the full labeling", name, source)
			}
			if !reflect.DeepEqual(gotLed.Entries(), wantLed.Entries()) {
				t.Fatalf("%s: source %d: ledgers differ:\nSSSPFrom %v\n    full %v", name, source, gotLed.Entries(), wantLed.Entries())
			}
			if !full.NegCycle && !got.VerifyTree(full) {
				t.Fatalf("%s: source %d: marked tree does not realize the distances", name, source)
			}
			// The labels behind the answer, for a sample of the sources.
			if full.NegCycle || i%8 != 0 {
				continue
			}
			wanted := pl.wantedFrom([]int{source})
			half, err := pl.label(ctx, wanted, true, nl.lens, ledger.New())
			if err != nil {
				t.Fatal(err)
			}
			for id, labels := range half.byBag {
				if len(labels) != len(tree.Bags[id].Faces) {
					t.Fatalf("%s: source %d: bag %d holds %d labels for %d faces", name, source, id, len(labels), len(tree.Bags[id].Faces))
				}
				isWanted := map[int]bool{}
				for _, f := range wanted[id] {
					isWanted[f] = true
				}
				for f, l := range labels {
					ref := full.byBag[id][f]
					if !reflect.DeepEqual(l.From, ref.From) {
						t.Fatalf("%s: source %d: bag %d face %d: From differs", name, source, id, f)
					}
					if !isWanted[f] {
						if l.To != nil || l.LeafTo != nil {
							t.Fatalf("%s: source %d: bag %d face %d: unwanted face holds a To half", name, source, id, f)
						}
						fromOnly++
						continue
					}
					if !reflect.DeepEqual(l.To, ref.To) || !reflect.DeepEqual(l.LeafTo, ref.LeafTo) || l.Words() != ref.Words() {
						t.Fatalf("%s: source %d: bag %d face %d: wanted label differs from the full labeling's", name, source, id, f)
					}
				}
			}
		}

		canceled, cancel := context.WithCancel(ctx)
		cancel()
		led := ledger.New()
		if res, err := SSSPFrom(canceled, tree, nl.lens, tree.Root.Faces[0], led); err != context.Canceled || res != nil {
			t.Fatalf("%s: canceled SSSPFrom returned %v, %v", name, res, err)
		}
		if len(led.Entries()) != 0 {
			t.Fatalf("%s: canceled SSSPFrom charged %v", name, led.Entries())
		}
	})
	if oneBag == 0 || inRootFX == 0 || negCycles == 0 || fromOnly == 0 {
		t.Fatalf("cases not all exercised: one-bag %d, source in root F_X %d, negative cycles %d, From-only labels %d",
			oneBag, inRootFX, negCycles, fromOnly)
	}
}

// TestProbeWantedSets pins the wanted-set rule on a multi-level tree: the
// root wants nothing, and a child wants exactly its share of the parent's
// F_X and of the parent's own wanted faces.
func TestProbeWantedSets(t *testing.T) {
	tree := bdd.Build(planar.Grid(9, 9), 8, ledger.New())
	pl := planOf(tree)
	if len(pl.probe[tree.Root.ID]) != 0 {
		t.Fatalf("root wants %v", pl.probe[tree.Root.ID])
	}
	if tree.Depth < 3 {
		t.Fatalf("tree too shallow (%d levels) to exercise inheritance", tree.Depth)
	}
	for _, b := range tree.Bags {
		if b.IsLeaf() {
			continue
		}
		need := map[int]bool{}
		for _, f := range b.FX {
			need[f] = true
		}
		for _, f := range pl.probe[b.ID] {
			need[f] = true
		}
		for _, c := range b.Children {
			var want []int
			for _, f := range c.Faces {
				if need[f] {
					want = append(want, f)
				}
			}
			if !reflect.DeepEqual(pl.probe[c.ID], want) {
				t.Fatalf("bag %d (child of %d) wants %v, rule gives %v", c.ID, b.ID, pl.probe[c.ID], want)
			}
		}
		if !reflect.DeepEqual(pl.every[b.ID], b.Faces) {
			t.Fatalf("bag %d: full labeling does not want every face", b.ID)
		}
	}
}
