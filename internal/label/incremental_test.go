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

// TestIncrementalProbeMatchesFullProbe drives Feasible's pass the way
// core.MaxFlow's λ search does — capacity lengths with λ pushed along an
// s–t path — once from the λ = 0 base (ProbeBase) and once from scratch,
// at λ ∈ {1, λ*, λ*+1, U} for random pairs: the same verdict, the same
// ledger entries, the same bags reached (so an infeasible λ aborts at the
// same bag), and every label the base-backed pass holds equal to the one
// computed from scratch.
func TestIncrementalProbeMatchesFullProbe(t *testing.T) {
	ctx := context.Background()
	rng := planar.NewRand(41)
	graphs := []struct {
		name string
		g    *planar.Graph
	}{
		{"grid9x9", planar.Grid(9, 9)},
		{"cylinder6x8", planar.Cylinder(6, 8)},
		{"triangulation80", planar.StackedTriangulation(80, rng)},
		{"snake8x8", planar.BoustrophedonGrid(8, 8)},
		{"grid10x10-minus25", planar.RemoveRandomEdges(planar.Grid(10, 10), rng, 25)},
		{"triangulation100-minus60", planar.RemoveRandomEdges(planar.StackedTriangulation(100, rng), rng, 60)},
	}
	var feasible, infeasible, reused, relabeled int
	for _, gr := range graphs {
		g := planar.WithRandomDirections(planar.WithRandomWeights(gr.g, rng, 1, 1, 0, 9), rng)
		capLens := capacityLengths(g)
		for _, leafLimit := range []int{8, 0} {
			tree := bdd.Build(g, leafLimit, ledger.New())
			pl := mustPlan(t, tree, Dual)
			base, err := ProbeBase(ctx, tree, capLens)
			if err != nil || base.NegCycle {
				t.Fatalf("%s: ProbeBase: NegCycle=%v err=%v", gr.name, base != nil && base.NegCycle, err)
			}
			for pair := 0; pair < 5; pair++ {
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
				for _, lambda := range []int64{1, star, star + 1, min(out, in)} {
					name := gr.name
					lens := pushed(capLens, path, lambda)
					fullLed, incLed := ledger.New(), ledger.New()
					full, err := pl.label(ctx, pl.probe, lens, nil, fullLed)
					if err != nil {
						t.Fatal(err)
					}
					inc, err := pl.label(ctx, pl.probe, lens, base, incLed)
					if err != nil {
						t.Fatal(err)
					}
					if inc.NegCycle != full.NegCycle {
						t.Fatalf("%s s=%d t=%d λ=%d: NegCycle %v from the base, %v from scratch", name, s, tt, lambda, inc.NegCycle, full.NegCycle)
					}
					if (lambda <= star) == full.NegCycle {
						t.Fatalf("%s s=%d t=%d λ=%d (λ*=%d): NegCycle=%v", name, s, tt, lambda, star, full.NegCycle)
					}
					if !reflect.DeepEqual(incLed.Entries(), fullLed.Entries()) {
						t.Fatalf("%s s=%d t=%d λ=%d: ledgers differ:\nbase    %v\nscratch %v", name, s, tt, lambda, incLed.Entries(), fullLed.Entries())
					}
					ok, err := Feasible(ctx, tree, lens, base, ledger.New())
					if err != nil || ok == full.NegCycle {
						t.Fatalf("%s s=%d t=%d λ=%d: Feasible=%v err=%v with NegCycle=%v", name, s, tt, lambda, ok, err, full.NegCycle)
					}
					if full.NegCycle {
						infeasible++
					} else {
						feasible++
					}
					for id := range full.byBag {
						if (inc.byBag[id] == nil) != (full.byBag[id] == nil) {
							t.Fatalf("%s s=%d t=%d λ=%d: bag %d reached by one pass only", name, s, tt, lambda, id)
						}
						if len(full.byBag[id]) == 0 {
							continue
						}
						if &inc.byBag[id][0] == &base.byBag[id][0] {
							reused++
						} else {
							relabeled++
						}
						for i := range full.byBag[id] {
							got, want := &inc.byBag[id][i], &full.byBag[id][i]
							if got.key != want.key || !reflect.DeepEqual(got.vec, want.vec) {
								t.Fatalf("%s s=%d t=%d λ=%d: bag %d key %d: labels differ", name, s, tt, lambda, id, want.key)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d feasible and %d infeasible probes; %d bag labelings reused, %d relabeled", feasible, infeasible, reused, relabeled)
	if feasible == 0 || infeasible == 0 || reused == 0 || relabeled == 0 {
		t.Fatal("the cases do not exercise both verdicts and both kinds of bag")
	}
}

// TestFeasibleRefusesABadBase: a base that is not a completed dual labeling
// over the probed tree is an error, never a verdict.
func TestFeasibleRefusesABadBase(t *testing.T) {
	ctx := context.Background()
	g := planar.WithRandomWeights(planar.Grid(5, 5), planar.NewRand(3), 1, 1, 1, 9)
	tree := bdd.Build(g, 8, ledger.New())
	other := bdd.Build(g, 12, ledger.New())
	lens := capacityLengths(g)
	neg := append([]int64(nil), lens...)
	neg[planar.BackwardDart(0)] = -lens[planar.ForwardDart(0)] - 1
	for name, base := range map[string]func() (*Labeling, error){
		"negative cycle": func() (*Labeling, error) { return ProbeBase(ctx, tree, neg) },
		"another tree":   func() (*Labeling, error) { return ProbeBase(ctx, other, lens) },
		"primal view":    func() (*Labeling, error) { return ComputeContext(ctx, Primal, tree, lens, ledger.New()) },
	} {
		b, err := base()
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := Feasible(ctx, tree, lens, b, ledger.New()); err == nil {
			t.Errorf("%s: Feasible=%v with no error", name, ok)
		}
	}
}
