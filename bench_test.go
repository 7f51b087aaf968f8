package planarflow

// One benchmark per experiment of DESIGN.md §3 (the paper's theorems), each
// reporting the simulated CONGEST rounds of the run as a custom metric, plus
// micro-benchmarks of the substrates. Regenerate the full tables with
// cmd/flowbench; these benches track wall-clock and round costs per change.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/bdd"
	"planarflow/internal/congest"
	"planarflow/internal/core"
	"planarflow/internal/hatg"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/pa"
	"planarflow/internal/planar"
)

func reportRounds(b *testing.B, led *ledger.Ledger) {
	b.Helper()
	b.ReportMetric(float64(led.Total()), "rounds")
}

// BenchmarkE1ExactMaxFlow — Thm 1.2: exact max st-flow, Õ(D²) rounds.
func BenchmarkE1ExactMaxFlow(b *testing.B) {
	rng := planar.NewRand(1)
	g := planar.WithRandomWeights(planar.Grid(12, 12), rng, 1, 1, 1, 64)
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if _, err := core.MaxFlow(artifact.New(g), 0, g.N()-1, core.Options{}, led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// BenchmarkE2ApproxFlow — Thm 1.3: (1-eps) st-planar flow, D·n^{o(1)} rounds.
func BenchmarkE2ApproxFlow(b *testing.B) {
	rng := planar.NewRand(2)
	g := planar.WithRandomWeights(planar.Grid(12, 12), rng, 1, 1, 100, 1000)
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if _, err := core.STPlanarMaxFlow(artifact.New(g), 0, g.N()-1, 0.1, led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// BenchmarkE3GlobalMinCut — Thm 1.5: directed global min cut, Õ(D²) rounds.
func BenchmarkE3GlobalMinCut(b *testing.B) {
	rng := planar.NewRand(3)
	g := planar.WithRandomWeights(planar.BoustrophedonGrid(10, 10), rng, 1, 40, 1, 1)
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if _, err := core.GlobalMinCut(artifact.New(g), core.Options{}, led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// BenchmarkE4Girth — Thm 1.7: weighted girth, Õ(D) rounds.
func BenchmarkE4Girth(b *testing.B) {
	rng := planar.NewRand(4)
	g := planar.WithRandomWeights(planar.Grid(12, 12), rng, 1, 1000000, 1, 1)
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if _, err := core.Girth(artifact.New(g), led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// BenchmarkE5DualLabeling — Thm 2.1: Õ(D)-word labels in Õ(D²) rounds.
func BenchmarkE5DualLabeling(b *testing.B) {
	rng := planar.NewRand(5)
	g := planar.Grid(12, 12)
	lens := make([]int64, g.NumDarts())
	for d := range lens {
		lens[d] = 1 + rng.Int64N(64)
	}
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		tree := bdd.Build(g, 0, led)
		if la := label.Compute(label.Dual, tree, lens, led); la.NegCycle {
			b.Fatal("unexpected negative cycle")
		}
	}
	reportRounds(b, led)
}

// BenchmarkE6MinSTCut — Thm 6.1: exact directed min st-cut.
func BenchmarkE6MinSTCut(b *testing.B) {
	rng := planar.NewRand(6)
	g := planar.WithRandomWeights(planar.Grid(10, 10), rng, 1, 1, 1, 32)
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if _, err := core.MinSTCut(artifact.New(g), 0, g.N()-1, core.Options{}, led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// warmGridGraph is the E1 instance: a capacitated Grid(12,12).
func warmGridGraph() *planar.Graph {
	return planar.WithRandomWeights(planar.Grid(12, 12), planar.NewRand(1), 1, 1, 1, 64)
}

// warmGrid is the prepared graph the warm benchmarks and the alloc ceilings
// run on: a capacitated Grid(12,12) with its BDD and its max-flow λ = 0
// state built.
func warmGrid(tb testing.TB) (*artifact.Prepared, *bdd.BDD) {
	tb.Helper()
	p := artifact.New(warmGridGraph())
	tree, err := p.Tree(0, ledger.New())
	if err == nil {
		_, err = p.FlowBase(0, ledger.New())
	}
	if err != nil {
		tb.Fatal(err)
	}
	return p, tree
}

// warmPairs are the two kinds of exact max-flow query on the warm grid,
// whose edges all point right or down: from the bottom-left corner to the
// top-right one nothing flows, and the λ = 1 probe finds that out (λ* = 0);
// from the top-left corner to the bottom-right one, E1's pair, the search
// bisects (λ* > 0).
var warmPairs = []struct {
	name string
	s, t int
}{
	{"zero", 11 * 12, 11},
	{"positive", 0, 12*12 - 1},
}

// probeLengths is the first λ of a search on the warm grid: the capacity
// lengths of p's λ = 0 state with 1 pushed along a BFS path from vertex 0
// to the last one.
func probeLengths(tb testing.TB, p *artifact.Prepared) []int64 {
	tb.Helper()
	fb, err := p.FlowBase(0, ledger.New())
	if err != nil {
		tb.Fatal(err)
	}
	g := p.Graph()
	lens := append([]int64(nil), fb.Lengths...)
	bfs := g.BFS(0)
	for v := g.N() - 1; v != 0; v = g.Tail(bfs.Parent[v]) {
		d := bfs.Parent[v]
		lens[d]--
		lens[planar.Rev(d)]++
	}
	return lens
}

// abortProbe is a probe on the warm grid that fails at an internal bag: the
// grid's tree at leaf limit 64, whose first internal bag below the root has
// cross edges, and the capacity lengths with -1 on the forward dart of one
// of them. The edge's dual 2-cycle is the one negative cycle, and no bag
// below that one holds both its arcs, so the pass aborts there.
func abortProbe(tb testing.TB, p *artifact.Prepared) (*bdd.BDD, []int64) {
	tb.Helper()
	fb, err := p.FlowBase(0, ledger.New())
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := p.Tree(64, ledger.New())
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range tree.Bags {
		if b != tree.Root && !b.IsLeaf() && len(b.DualSXEdges) > 0 {
			lens := slices.Clone(fb.Lengths)
			lens[planar.ForwardDart(b.DualSXEdges[0])] = -1
			return tree, lens
		}
	}
	tb.Fatal("no internal bag below the root has a cross edge")
	return nil, nil
}

// benchWarmExact times run on the E1 instance behind an artifact whose BDD
// is already built — the per-query work only — and reports the rounds of
// the last run.
func benchWarmExact(b *testing.B, run func(p *artifact.Prepared, tree *bdd.BDD, led *ledger.Ledger) error) {
	p, tree := warmGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if err := run(p, tree, led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// BenchmarkWarmMaxFlow — E1 on a prepared graph: the λ search and the
// assignment alone, on each of warmPairs, then corner to corner on two
// larger graphs capacitated as E1's, where a probe's negative-cycle search
// has the most graph to cover: a Grid(32,32) (λ* = 43, a long s–t path) and
// a Triangulation(1000) (a deep tree).
func BenchmarkWarmMaxFlow(b *testing.B) {
	for _, c := range warmPairs {
		b.Run(c.name, func(b *testing.B) {
			benchWarmExact(b, func(p *artifact.Prepared, _ *bdd.BDD, led *ledger.Ledger) error {
				_, err := core.MaxFlow(p, c.s, c.t, core.Options{}, led)
				return err
			})
		})
	}
	for _, c := range []struct {
		name string
		g    *planar.Graph
		s, t int
	}{
		{"grid32x32", planar.Grid(32, 32), 0, 32*32 - 1},
		// Vertex 0 of this triangulation has no capacity out, so the pair
		// runs the other way: λ* = 82 after 9 probes.
		{"triangulation1000", planar.StackedTriangulation(1000, planar.NewRand(1)), 999, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			// One untimed query derives what the tree's plan keeps for every
			// later one (the bags' own graphs among them), so allocs/op is a
			// query's.
			p := artifact.New(planar.WithRandomWeights(c.g, planar.NewRand(1), 1, 1, 1, 64))
			if _, err := core.MaxFlow(p, c.s, c.t, core.Options{}, ledger.New()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var led *ledger.Ledger
			for i := 0; i < b.N; i++ {
				led = ledger.New()
				if _, err := core.MaxFlow(p, c.s, c.t, core.Options{}, led); err != nil {
					b.Fatal(err)
				}
			}
			reportRounds(b, led)
		})
	}
}

// BenchmarkWarmMinSTCut — E6 on a prepared graph, on each of warmPairs: at
// λ* = 0 the residual graph and its pass are the λ = 0 state's, and only
// the row from s runs.
func BenchmarkWarmMinSTCut(b *testing.B) {
	for _, c := range warmPairs {
		b.Run(c.name, func(b *testing.B) {
			benchWarmExact(b, func(p *artifact.Prepared, _ *bdd.BDD, led *ledger.Ledger) error {
				_, err := core.MinSTCut(p, c.s, c.t, core.Options{}, led)
				return err
			})
		})
	}
}

// BenchmarkWarmSTFlow — Thm 1.3 on a prepared graph whose minor-aggregation
// prices are resident (the first iteration builds them): the augmented dual
// and its one Dijkstra. s and t are opposite corners of the outer face.
func BenchmarkWarmSTFlow(b *testing.B) {
	benchWarmExact(b, func(p *artifact.Prepared, _ *bdd.BDD, led *ledger.Ledger) error {
		_, err := core.STPlanarMaxFlow(p, 0, p.Graph().N()-1, 0, led)
		return err
	})
}

// BenchmarkWarmSTCut — Thm 6.2, as BenchmarkWarmSTFlow.
func BenchmarkWarmSTCut(b *testing.B) {
	benchWarmExact(b, func(p *artifact.Prepared, _ *bdd.BDD, led *ledger.Ledger) error {
		_, err := core.STPlanarMinCut(p, 0, p.Graph().N()-1, 0, led)
		return err
	})
}

// BenchmarkGirthFirst — Thm 1.7 on a graph never seen before: the one build
// of the prices (Ĝ, the skeleton, one measured PA) plus the dual min cut.
// /grid12x12 is the unit-weight warm grid, where Stoer–Wagner dominates;
// /triangulation100 is a cold_build graph, weights 1–9, where the prices do.
func BenchmarkGirthFirst(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *planar.Graph
	}{
		{"grid12x12", warmGridGraph()},
		{"triangulation100", coldTriangulationGraph()},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.g.Faces()
			b.ReportAllocs()
			var led *ledger.Ledger
			for i := 0; i < b.N; i++ {
				led = ledger.New()
				if _, err := core.Girth(artifact.New(c.g), led); err != nil {
					b.Fatal(err)
				}
			}
			reportRounds(b, led)
		})
	}
}

// coldTriangulationGraph is a triangulation of bench/'s cold_build
// catalogue: a StackedTriangulation(100), weights 1–9.
func coldTriangulationGraph() *planar.Graph {
	return planar.WithRandomWeights(planar.StackedTriangulation(100, planar.NewRand(1)), planar.NewRand(1), 1, 9, 1, 10)
}

// coldSnakeGraph is a snake of bench/'s cold_build catalogue: a strongly
// connected Boustrophedon Grid(12,12), weights 1–9.
func coldSnakeGraph() *planar.Graph {
	return planar.WithRandomWeights(planar.BoustrophedonGrid(12, 12), planar.NewRand(1), 1, 9, 1, 10)
}

// BenchmarkGlobalMinCutFirst — Thm 1.5 on a graph never seen before: the
// BDD, the free-reversal dual labeling, the per-bag cycle enumeration over
// it and the bisection's reconstruction.
func BenchmarkGlobalMinCutFirst(b *testing.B) {
	g := coldSnakeGraph()
	b.ReportAllocs()
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if _, err := core.GlobalMinCut(artifact.New(g), core.Options{}, led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// BenchmarkLabelPlan — the layout a new tree's labels are stored in, per
// view (label.Layouts on a tree no labeling has touched): what the first
// labeling of a cold_build graph, and every snapshot restore, derives once.
// The tree is built outside the timer.
func BenchmarkLabelPlan(b *testing.B) {
	for _, v := range []label.View{label.Primal, label.Dual} {
		for _, c := range []struct {
			name string
			g    *planar.Graph
		}{
			{"triangulation100", planar.StackedTriangulation(100, planar.NewRand(1))},
			{"snake12x12", coldSnakeGraph()},
		} {
			b.Run(v.String()+"/"+c.name, func(b *testing.B) {
				c.g.Faces()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tree := bdd.Build(c.g, 0, ledger.New())
					b.StartTimer()
					if _, err := label.Layouts(v, tree); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// restoreGraphs are the graphs a restore is weighed on: a Triangulation(400),
// a Triangulation(100) and a snake(12,12), weights and capacities 1–10.
func restoreGraphs() []struct {
	name string
	g    *Graph
} {
	weighted := func(g *planar.Graph) *Graph {
		return &Graph{g: planar.WithRandomWeights(g, planar.NewRand(1), 1, 10, 1, 10)}
	}
	return []struct {
		name string
		g    *Graph
	}{
		{"triangulation400", weighted(planar.StackedTriangulation(400, planar.NewRand(1)))},
		{"triangulation100", weighted(planar.StackedTriangulation(100, planar.NewRand(1)))},
		{"snake12x12", weighted(planar.BoustrophedonGrid(12, 12))},
	}
}

// warmSnapshot is the snapshot of gr's bundle after Warm: the BDD and both
// labelings, the default substrates.
func warmSnapshot(tb testing.TB, gr *Graph) []byte {
	tb.Helper()
	p, err := Prepare(gr)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.Warm(context.Background()); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkRestoreVsWarm — a bundle's default substrates built against
// restored: /warm is Prepare + Warm (the BDD and both labelings built),
// /restore is RestorePrepared from that bundle's snapshot (the tree
// decoded, the labelings computed again over it). snapshot_B is the
// snapshot's size.
func BenchmarkRestoreVsWarm(b *testing.B) {
	ctx := context.Background()
	for _, c := range restoreGraphs() {
		c.g.g.Faces()
		snap := warmSnapshot(b, c.g)
		b.Run(c.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := Prepare(c.g)
				if err == nil {
					err = p.Warm(ctx)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/restore", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RestorePrepared(c.g, bytes.NewReader(snap)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(snap)), "snapshot_B")
		})
	}
}

// BenchmarkColdLabeling — a cold_build graph's first labeling, per view:
// the tree's plan laid out and every bag labeled, leaf and DDG rows reusing
// the bag's finished rows. The tree is built outside the timer.
func BenchmarkColdLabeling(b *testing.B) {
	for _, v := range []label.View{label.Primal, label.Dual} {
		for _, c := range []struct {
			name string
			g    *planar.Graph
		}{
			{"triangulation100", coldTriangulationGraph()},
			{"snake12x12", coldSnakeGraph()},
		} {
			b.Run(v.String()+"/"+c.name, func(b *testing.B) {
				c.g.Faces()
				lens := artifact.Lengths(c.g, artifact.Undirected)
				b.ReportAllocs()
				var led *ledger.Ledger
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tree := bdd.Build(c.g, 0, ledger.New())
					led = ledger.New()
					b.StartTimer()
					if label.Compute(v, tree, lens, led).NegCycle {
						b.Fatal("unexpected negative cycle")
					}
				}
				reportRounds(b, led)
			})
		}
	}
}

// BenchmarkFeasibilityProbe — a probe: one kernel run over G*, charged as
// the labeling pass it stands for. /feasible is one λ of the search
// (probeLengths); /infeasible (abortProbe) then checks the own graphs of the
// bags its pass would label, kept in the tree's dual plan, for the one it
// aborts at, an internal bag. Each must charge what the full labeling does.
func BenchmarkFeasibilityProbe(b *testing.B) {
	p, tree := warmGrid(b)
	abortTree, infeasible := abortProbe(b, p)
	for _, c := range []struct {
		name string
		tree *bdd.BDD
		lens []int64
		ok   bool
	}{{"feasible", tree, probeLengths(b, p), true}, {"infeasible", abortTree, infeasible, false}} {
		b.Run(c.name, func(b *testing.B) {
			want := ledger.New()
			if la := label.Compute(label.Dual, c.tree, c.lens, want); la.NegCycle == c.ok {
				b.Fatalf("the full labeling's negative-cycle verdict is %v", la.NegCycle)
			}
			// The first probe derives the skeletons the plan keeps; it is not timed.
			if _, err := label.Feasible(context.Background(), label.Dual, c.tree, c.lens, ledger.New()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var led *ledger.Ledger
			for i := 0; i < b.N; i++ {
				led = ledger.New()
				ok, err := label.Feasible(context.Background(), label.Dual, c.tree, c.lens, led)
				if err == nil && ok != c.ok {
					err = fmt.Errorf("verdict %v, want %v", ok, c.ok)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if !reflect.DeepEqual(led.Entries(), want.Entries()) {
				b.Fatalf("charged %v, the full labeling %v", led.Entries(), want.Entries())
			}
			reportRounds(b, led)
		})
	}
}

// BenchmarkFullDualLabeling — the same pass over every key (E5 without the
// BDD build), in both views; the dual one charges the same rounds as the
// probe.
func BenchmarkFullDualLabeling(b *testing.B) {
	for _, v := range []label.View{label.Dual, label.Primal} {
		b.Run(v.String(), func(b *testing.B) {
			benchWarmExact(b, func(p *artifact.Prepared, tree *bdd.BDD, led *ledger.Ledger) error {
				if label.Compute(v, tree, artifact.Lengths(p.Graph(), artifact.Undirected), led).NegCycle {
					return errors.New("unexpected negative cycle")
				}
				return nil
			})
		})
	}
}

// BenchmarkSourceLabeling — SSSP from one source as label.SSSPFrom answers
// it: the pass driven for its charges alone, then one kernel run over the
// view's whole graph. Dual as MaxFlow's assignment step at λ* runs it (the
// pass charges nothing, λ*'s probe already did), primal as MinSTCut's
// residual SSSP does (the pass is charged). The rounds reported are checked
// equal to those of the full labeling charged the same way plus SSSP over it.
func BenchmarkSourceLabeling(b *testing.B) {
	for _, v := range []label.View{label.Dual, label.Primal} {
		b.Run(v.String(), func(b *testing.B) {
			var (
				tree *bdd.BDD
				lens []int64
				got  *ledger.Ledger
			)
			passLedger := func(led *ledger.Ledger) *ledger.Ledger {
				if v == label.Primal {
					return led
				}
				return ledger.New()
			}
			benchWarmExact(b, func(p *artifact.Prepared, t *bdd.BDD, led *ledger.Ledger) error {
				tree, lens, got = t, artifact.Lengths(p.Graph(), artifact.Undirected), led
				res, err := label.SSSPFrom(context.Background(), v, tree, lens, 0, passLedger(led), led)
				if err == nil && res.NegCycle {
					err = errors.New("unexpected negative cycle")
				}
				return err
			})
			want := ledger.New()
			label.Compute(v, tree, lens, passLedger(want)).SSSP(0, want)
			if !reflect.DeepEqual(got.Entries(), want.Entries()) {
				b.Fatalf("SSSPFrom charged %v, SSSP over the full labeling %v", got.Entries(), want.Entries())
			}
		})
	}
}

// TestAllocCeilings pins what the labeling pass allocates per run, where the
// benchmarks above report it: a pass allocates per bag (a label slab, a
// vector slab, a DDG), never per source or per entry, so a feasibility
// probe, a full labeling and a whole exact max-flow stay under ceilings an
// order of magnitude below what per-entry maps and per-source arrays cost
// (1,267 / 3,592 / 15,448 allocs before labels were slices) — and what the
// oracles that answer from resident substrates allocate per query. The race
// detector allocates on its own, so the counts mean nothing under it.
func TestAllocCeilings(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not comparable under -race")
			}
		}
	}
	p, tree := warmGrid(t)
	abortTree, infeasible := abortProbe(t, p)
	snake := artifact.New(coldSnakeGraph())
	coldSnake := coldSnakeGraph()
	coldSnake.Faces()
	coldTri := planar.StackedTriangulation(100, planar.NewRand(1))
	coldTri.Faces()
	// firstPlan lays out a tree no labeling has touched per run: the trees
	// are built here, one per run of AllocsPerRun (its warm-up included).
	firstPlan := func(v label.View) func() error {
		trees := make([]*bdd.BDD, 6)
		for i := range trees {
			trees[i] = bdd.Build(coldTri, 0, ledger.New())
		}
		return func() error {
			tree := trees[0]
			trees = trees[1:]
			_, err := label.Layouts(v, tree)
			return err
		}
	}
	restoreTri := restoreGraphs()[1]
	restoreSnap := warmSnapshot(t, restoreTri.g)
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		// A probe labels nothing: one kernel run over G*, then the drive's
		// level costs (5 allocs with a recycled kernel, 9 with a new one; 9 /
		// 14 while the drive ran before the verdict and the kernel kept four
		// arrays for its search, 33 while it ran the labeling pass over the
		// faces its verdict read). Kernels are pooled and a GC empties the
		// pool, so every ceiling on a path that probes holds with a new
		// kernel per run.
		{"label.Feasible", 12, func() error {
			_, err := label.Feasible(ctx, label.Dual, tree, artifact.Lengths(p.Graph(), artifact.Undirected), ledger.New())
			return err
		}},
		// A probe that fails, at an internal bag, then loads the own graph of
		// each bag holding a negative dart, bottom-up, until one closes a
		// negative cycle: the plan keeps those graphs, derived by the first
		// failing probe, so none is laid out here (3 allocs, 7 with a new
		// kernel; 5 / 12 while it drove the level costs first).
		{"label.Feasible(infeasible)", 20, func() error {
			_, err := label.Feasible(ctx, label.Dual, abortTree, infeasible, ledger.New())
			return err
		}},
		{"label.Compute(dual)", 150, func() error {
			label.Compute(label.Dual, tree, artifact.Lengths(p.Graph(), artifact.Undirected), ledger.New())
			return nil
		}},
		// A source-directed SSSP labels nothing: the drive's level costs, one
		// kernel over the whole graph and the answer's rows (11 / 9 allocs
		// since SSSP's phase names are built once, 13 / 10 before,
		// 25 / 20 with a new kernel; 17 / 14 and 30 / 25 while the kernel kept
		// four arrays for its search, 31 / 25 while it built the whole graph's
		// arc list per call, 60 / 57 while it ran the labeling pass
		// source-directed).
		{"label.SSSPFrom(dual)", 40, func() error {
			_, err := label.SSSPFrom(ctx, label.Dual, tree, artifact.Lengths(p.Graph(), artifact.Undirected), 0, ledger.New(), ledger.New())
			return err
		}},
		{"label.SSSPFrom(primal)", 40, func() error {
			_, err := label.SSSPFrom(ctx, label.Primal, tree, artifact.Lengths(p.Graph(), artifact.Undirected), 0, ledger.New(), ledger.New())
			return err
		}},
		// An exact max-flow with the graph's λ = 0 state resident, on each of
		// warmPairs: 7 allocs at λ* = 0 (one probe, decided by reachability,
		// the assignment a copy of the state's circulation, its entries
		// replayed; 9 while it recomputed the circulation and every merge
		// copied the entries it replayed) and 11 at λ* > 0 (one search, its
		// SSSP at λ* reading λ*'s potentials and marking no tree; 12 while it
		// marked one), with min st-cut on top 21 (22), and 11 at λ* = 0 (the
		// λ = 0 state's residual graph and pass replayed, one row from s; 16)
		// — 14 / 25 / 12 while SSSP built its phase names per call, 30 / 43 /
		// 61 / 41 with a new search, kernel and BFS arrays per query (30 / 44
		// / 62 / 41 while the tree was marked). They
		// read 25 / 70 / 85 / 37 (31 / 120 / 142 with a new kernel) while every
		// probe loaded G*, drove the level costs and allocated its own
		// residual lengths, the λ* > 0 assignment ran SSSPFrom and every min
		// cut its own primal pass; 73 / 262 / 284 while each probe relabeled
		// the bags the s–t path touches, and 97 / 302 under one ceiling of
		// 1000 while every probe relabeled every bag and every λ* = 0
		// assignment ran SSSPFrom.
		{"core.MaxFlow(zero)", 40, func() error {
			_, err := core.MaxFlow(p, warmPairs[0].s, warmPairs[0].t, core.Options{}, ledger.New())
			return err
		}},
		{"core.MaxFlow(positive)", 54, func() error {
			_, err := core.MaxFlow(p, warmPairs[1].s, warmPairs[1].t, core.Options{}, ledger.New())
			return err
		}},
		{"core.MinSTCut", 74, func() error {
			_, err := core.MinSTCut(p, 0, p.Graph().N()-1, core.Options{}, ledger.New())
			return err
		}},
		{"core.MinSTCut(zero)", 55, func() error {
			_, err := core.MinSTCut(p, warmPairs[0].s, warmPairs[0].t, core.Options{}, ledger.New())
			return err
		}},
		// Once the graph's minor-aggregation prices are resident (the warm-up
		// run builds them: 17,386 allocs when every query did), an st-planar
		// flow or cut is the split of one face and one Dijkstra over the face
		// table, on pooled scratch: they read 5 / 10 (the result, the ledger's
		// entries; the cut's side and edges), 15 / 20 with a new scratch and
		// new face marks per run, 27 / 32 while every query built the
		// augmented dual as a digraph and Dijkstra allocated its results. A GC
		// empties the pools, so the ceilings hold with new scratch.
		{"core.STPlanarMaxFlow", 18, func() error {
			_, err := core.STPlanarMaxFlow(p, 0, p.Graph().N()-1, 0, ledger.New())
			return err
		}},
		{"core.STPlanarMinCut", 24, func() error {
			_, err := core.STPlanarMinCut(p, 0, p.Graph().N()-1, 0, ledger.New())
			return err
		}},
		// The cold path's oracles on a cold_build snake, the substrates they
		// read resident: a global min cut (cycle enumeration and bisection), a
		// directed girth, and a girth (min cut on the simple dual). The min
		// cut reads 434 since Dijkstra sizes its heap to the graph, 440 while
		// the heap grew from one item, 492 while planar.BFS re-sliced a queue
		// of its own. They read 55,826 / 2,521 / 1,311
		// allocs while the enumerations rebuilt a digraph per candidate arc
		// and the min cut ran Stoer–Wagner on the whole dual; the girth read
		// 700 while Lemma 4.15's deactivation kept a map per face and one map
		// of groups, and 152 with flat arrays while Stoer–Wagner grew a list
		// per node (56 with one CSR).
		{"core.GlobalMinCut", 528, func() error {
			_, err := core.GlobalMinCut(snake, core.Options{}, ledger.New())
			return err
		}},
		{"core.DirectedGirth", 40, func() error {
			_, err := core.DirectedGirth(snake, core.Options{}, ledger.New())
			return err
		}},
		{"core.Girth", 67, func() error {
			_, err := core.Girth(snake, ledger.New())
			return err
		}},
		// A first girth on a never-seen snake, its faces known: the prices
		// (Ĝ, the shortcut skeleton, one measured PA) plus the deactivation
		// and the min cut. Reads 113 since the PA's Steiner forest sizes its
		// arrays once; 155 while they grew by append; 159 while every ledger
		// merge copied the entries it folded in; 256 while Ĝ filled a typed
		// arc slab beside its neighbors and Stoer–Wagner grew a list per
		// node; 5,245
		// while Ĝ grew one arc slice per vertex, the PA network copied it
		// into a [][]int, every schedule round scanned all n vertices and
		// the deactivation kept maps.
		{"core.Girth(first)", 139, func() error {
			_, err := core.Girth(artifact.New(coldSnake), ledger.New())
			return err
		}},
		// The decomposition a cold_build graph is first served through, on a
		// Triangulation(100) and on the snake: 475 / 94 allocs since
		// planar.BFS queues in its Order; 492 / 146 while it re-sliced a
		// queue of its own; 832 / 187 (0.32 / 0.12 MB) before the separator
		// kept its bag-sized arrays on the build's scratch and laid its cycle
		// path out once, while every separator call allocated its own; 5,893
		// / 1,405 (0.65 / 0.21 MB, 0.56 ms on the triangulation) while every
		// bag kept whole-graph bitmaps and maps and every split allocated its
		// own.
		{"bdd.Build(triangulation100)", 570, func() error {
			bdd.Build(coldTri, 0, ledger.New())
			return nil
		}},
		{"bdd.Build(snake12x12)", 113, func() error {
			bdd.Build(snake.Graph(), 0, ledger.New())
			return nil
		}},
		// The layout of a new tree's labels, per view, on the
		// Triangulation(100): 232 / 191 allocs since every slice is counted
		// before it is allocated and no map or per-bag scratch is left;
		// 784 / 501 while primal keys, DDG nodes and RepsOf went through maps
		// and every per-bag slice grew by append.
		{"label.Layouts(primal, first)", 278, firstPlan(label.Primal)},
		{"label.Layouts(dual, first)", 229, firstPlan(label.Dual)},
		// A warm Triangulation(100) bundle restored from its snapshot: the
		// tree decoded, both labelings computed again over it. Reads 1,047
		// (902 while the snapshot carried the label vectors and DDGs, ≈ 20×
		// the bytes, and restore decoded them).
		{"RestorePrepared(triangulation100)", 1260, func() error {
			_, err := RestorePrepared(restoreTri.g, bytes.NewReader(restoreSnap))
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.run(); err != nil {
				t.Error(err)
			}
		})
		t.Logf("%s: %.0f allocs/run (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs/run, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// BenchmarkE7PartwiseAggregation — Cor 4.6/Thm 4.10: PA on G* in Õ(D).
func BenchmarkE7PartwiseAggregation(b *testing.B) {
	g := planar.Grid(16, 16)
	h := hatg.New(g)
	tree := pa.BuildTree(h, 0)
	nf := g.Faces().NumFaces()
	parts := pa.Parts{Of: make([]int, h.N()), Num: nf}
	input := make([]int64, h.N())
	for x := 0; x < h.N(); x++ {
		parts.Of[x] = -1
		if !h.IsStarCenter(x) {
			parts.Of[x] = h.FaceOfCopy(x)
			input[x] = 1
		}
	}
	var rounds int
	for i := 0; i < b.N; i++ {
		res := pa.Aggregate(h, tree, parts, input, pa.Sum)
		rounds = 2 * res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE8BDDBuild — Lem 5.1/Thm 5.2: decomposition construction.
func BenchmarkE8BDDBuild(b *testing.B) {
	g := planar.Grid(16, 16)
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		bdd.Build(g, 16, led)
	}
	reportRounds(b, led)
}

// BenchmarkE9DinicBaseline — the centralized comparator used throughout.
func BenchmarkE9DinicBaseline(b *testing.B) {
	rng := planar.NewRand(9)
	g := planar.WithRandomWeights(planar.Grid(16, 16), rng, 1, 1, 1, 64)
	for i := 0; i < b.N; i++ {
		core.DinicValue(g, 0, g.N()-1)
	}
}

// BenchmarkE10GirthSSSPRoute — the [36] Õ(D²) route the paper improves on.
func BenchmarkE10GirthSSSPRoute(b *testing.B) {
	g := planar.BoustrophedonGrid(12, 12)
	var led *ledger.Ledger
	for i := 0; i < b.N; i++ {
		led = ledger.New()
		if _, err := core.DirectedGirth(artifact.New(g), core.Options{}, led); err != nil {
			b.Fatal(err)
		}
	}
	reportRounds(b, led)
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationLeafLimit sweeps the BDD leaf bag size around the
// paper's Θ(D log n): too small explodes the level count (broadcast rounds),
// too large degenerates to the centralized leaf computation.
func BenchmarkAblationLeafLimit(b *testing.B) {
	g := planar.Grid(14, 14)
	rng := planar.NewRand(12)
	lens := make([]int64, g.NumDarts())
	for d := range lens {
		lens[d] = 1 + rng.Int64N(32)
	}
	for _, leaf := range []int{8, 32, bdd.DefaultLeafLimit(g), 4 * bdd.DefaultLeafLimit(g)} {
		b.Run(leafName(leaf, g), func(b *testing.B) {
			var led *ledger.Ledger
			for i := 0; i < b.N; i++ {
				led = ledger.New()
				tree := bdd.Build(g, leaf, led)
				if la := label.Compute(label.Dual, tree, lens, led); la.NegCycle {
					b.Fatal("negative cycle")
				}
			}
			reportRounds(b, led)
		})
	}
}

func leafName(leaf int, g *planar.Graph) string {
	if leaf == bdd.DefaultLeafLimit(g) {
		return "leaf=default"
	}
	return "leaf=" + itoa(leaf)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationGirthRoutes compares the paper's Õ(D) dual-cut girth
// against the Õ(D²) SSSP route on the same size.
func BenchmarkAblationGirthRoutes(b *testing.B) {
	rng := planar.NewRand(13)
	gU := planar.WithRandomWeights(planar.Grid(14, 14), rng, 1, 100, 1, 1)
	gD := planar.BoustrophedonGrid(14, 14)
	b.Run("dual-cut", func(b *testing.B) {
		var led *ledger.Ledger
		for i := 0; i < b.N; i++ {
			led = ledger.New()
			if _, err := core.Girth(artifact.New(gU), led); err != nil {
				b.Fatal(err)
			}
		}
		reportRounds(b, led)
	})
	b.Run("sssp-route", func(b *testing.B) {
		var led *ledger.Ledger
		for i := 0; i < b.N; i++ {
			led = ledger.New()
			if _, err := core.DirectedGirth(artifact.New(gD), core.Options{}, led); err != nil {
				b.Fatal(err)
			}
		}
		reportRounds(b, led)
	})
}

// --- substrate micro-benchmarks ---

func BenchmarkPlanarFaces(b *testing.B) {
	g := planar.Grid(32, 32)
	for i := 0; i < b.N; i++ {
		fresh := planar.MustGraph(g.N(), g.Edges(), rotationsOf(g))
		fresh.Faces()
	}
}

func rotationsOf(g *planar.Graph) [][]planar.Dart {
	rot := make([][]planar.Dart, g.N())
	for v := 0; v < g.N(); v++ {
		rot[v] = append([]planar.Dart(nil), g.Rotation(v)...)
	}
	return rot
}

func BenchmarkHatGConstruction(b *testing.B) {
	g := planar.Grid(32, 32)
	for i := 0; i < b.N; i++ {
		hatg.New(g)
	}
}

func BenchmarkSeparatorBDD(b *testing.B) {
	g := planar.Grid(24, 24)
	for i := 0; i < b.N; i++ {
		bdd.Build(g, 32, ledger.New())
	}
}

func BenchmarkCongestBFS(b *testing.B) {
	g := planar.Grid(16, 16)
	e := congest.NewEngine(g)
	var rounds int
	for i := 0; i < b.N; i++ {
		_, stats := congest.DistributedBFS(e, 0)
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}
