package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

func TestMaxFlowTinyGrid(t *testing.T) {
	g := planar.Grid(2, 2) // 4 vertices, 4 edges, unit caps
	led := ledger.New()
	res, err := MaxFlow(prep(g), 0, 3, Options{LeafLimit: 4}, led)
	if err != nil {
		t.Fatal(err)
	}
	want := DinicValue(g, 0, 3)
	if res.Value != want {
		t.Fatalf("value=%d want %d", res.Value, want)
	}
	if err := CheckFlow(g, 0, 3, res.Flow, res.Value); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowRandomGrids(t *testing.T) {
	rng := planar.NewRand(21)
	for trial := 0; trial < 8; trial++ {
		rows, cols := 2+rng.IntN(4), 2+rng.IntN(5)
		g0 := planar.Grid(rows, cols)
		g := planar.WithRandomWeights(g0, rng, 1, 10, 1, 20)
		g = planar.WithRandomDirections(g, rng)
		s := rng.IntN(g.N())
		tt := rng.IntN(g.N())
		if s == tt {
			continue
		}
		led := ledger.New()
		res, err := MaxFlow(prep(g), s, tt, Options{LeafLimit: 12}, led)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := DinicValue(g, s, tt)
		if res.Value != want {
			t.Fatalf("trial %d (%dx%d s=%d t=%d): value=%d want %d",
				trial, rows, cols, s, tt, res.Value, want)
		}
		if err := CheckFlow(g, s, tt, res.Flow, res.Value); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if led.Total() == 0 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestMaxFlowTriangulations(t *testing.T) {
	rng := planar.NewRand(33)
	for trial := 0; trial < 5; trial++ {
		g0 := planar.StackedTriangulation(12+rng.IntN(20), rng)
		g := planar.WithRandomWeights(g0, rng, 1, 5, 1, 15)
		g = planar.WithRandomDirections(g, rng)
		s, tt := 0, g.N()-1
		res, err := MaxFlow(prep(g), s, tt, Options{LeafLimit: 16}, led())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := DinicValue(g, s, tt)
		if res.Value != want {
			t.Fatalf("trial %d: value=%d want %d", trial, res.Value, want)
		}
		if err := CheckFlow(g, s, tt, res.Flow, res.Value); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func led() *ledger.Ledger { return ledger.New() }

// tripCtx reports context.Canceled from its limit-th Err() call on and
// counts the calls, so a test can cancel "mid-search" at an exact labeling
// checkpoint and see whether anything polled the context afterwards.
type tripCtx struct {
	context.Context
	limit, calls int
}

func (c *tripCtx) Err() error {
	c.calls++
	if c.calls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestExactQueriesStopWhenCanceled: MaxFlow and MinSTCut poll the prepared
// view's context once per bag; a canceled view returns an error matching
// context.Canceled and processes no further bag (no further poll). The
// polls are counted on a bundle whose λ = 0 state is built, which a query
// builds once per graph; a cancellation while it builds publishes nothing.
func TestExactQueriesStopWhenCanceled(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(8, 8), planar.NewRand(3), 1, 9, 1, 9)
	p := prep(g)
	opt := Options{LeafLimit: 12}
	tree, err := p.Tree(opt.LeafLimit, led())
	if err != nil {
		t.Fatal(err)
	}
	bags := len(tree.Bags)
	if bags < 7 {
		t.Fatalf("only %d bags: nothing to stop between", bags)
	}
	s, tt := 0, g.N()-1

	// A bundle as warm as p but for its λ = 0 state, and the answer and
	// ledger of a first query on one.
	freshWarm := func() *artifact.Prepared {
		q := prep(g)
		if _, err := q.Tree(opt.LeafLimit, led()); err != nil {
			t.Fatal(err)
		}
		return q
	}
	wantLed := led()
	want, err := MaxFlow(freshWarm(), s, tt, opt, wantLed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FlowBase(opt.LeafLimit, led()); err != nil {
		t.Fatal(err)
	}

	// How many polls an uncanceled query makes: one per bag reached, and the
	// λ=1 probe (feasible: every grid edge points away from s) and the
	// final, source-directed pass reach every bag.
	count := &tripCtx{Context: context.Background(), limit: 1 << 30}
	if _, err := MaxFlow(p.WithContext(count), s, tt, opt, led()); err != nil {
		t.Fatal(err)
	}
	flowPolls := count.calls
	if flowPolls < 2*bags {
		t.Fatalf("MaxFlow polled the context %d times over %d bags", flowPolls, bags)
	}

	for _, tc := range []struct {
		name  string
		limit int
		run   func(ctx context.Context) error
	}{
		{"maxflow/before", 1, func(ctx context.Context) error {
			_, err := MaxFlow(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"maxflow/mid-search", flowPolls / 2, func(ctx context.Context) error {
			_, err := MaxFlow(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"maxflow/final-labeling", flowPolls, func(ctx context.Context) error {
			_, err := MaxFlow(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"minstcut/before", 1, func(ctx context.Context) error {
			_, err := MinSTCut(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"minstcut/primal-labeling", flowPolls + bags/2 + 1, func(ctx context.Context) error {
			_, err := MinSTCut(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
	} {
		ctx := &tripCtx{Context: context.Background(), limit: tc.limit}
		err := tc.run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want context.Canceled", tc.name, err)
		}
		if ctx.calls != tc.limit {
			t.Errorf("%s: context polled %d times, canceled at poll %d", tc.name, ctx.calls, tc.limit)
		}
	}

	// A really canceled context, through the public cancel func.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinSTCut(p.WithContext(cctx), s, tt, opt, led()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err=%v", err)
	}

	// Canceled while the λ = 0 state builds: the first probe builds it — one
	// poll before the build, then one per bag of its probe pass — so poll
	// bags/2 lands inside that pass. Nothing publishes, and the next query
	// builds the state afresh and answers what a first query answers, entry
	// for entry.
	cold := freshWarm()
	before := cold.Stats()
	ctx := &tripCtx{Context: context.Background(), limit: bags / 2}
	if _, err := MaxFlow(cold.WithContext(ctx), s, tt, opt, led()); !errors.Is(err, context.Canceled) || ctx.calls != ctx.limit {
		t.Fatalf("canceled mid-build: err=%v after %d polls, want context.Canceled at poll %d", err, ctx.calls, ctx.limit)
	}
	if after := cold.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a canceled build published: %+v, was %+v", after, before)
	}
	gotLed := led()
	got, err := MaxFlow(cold, s, tt, opt, gotLed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLed.Entries(), wantLed.Entries()) {
		t.Fatalf("after a canceled build: %+v %v, want %+v %v", got, gotLed.Entries(), want, wantLed.Entries())
	}
	if n := len(cold.Stats().Caches); n != 1 {
		t.Fatalf("%d λ = 0 states after the rebuild, want 1", n)
	}
}

// TestFlowBaseBuiltOnce: eight first max-flows racing on one bundle whose
// BDD is built and whose λ = 0 state is not build that state once — one
// Stats row — and each answers and charges exactly what the same query on
// its own bundle does: at λ* > 0, at λ* = 0 after a failed λ = 1 probe,
// and at λ* = 0 with no probe (nothing leaves s), where the assignment is
// what builds the state.
func TestFlowBaseBuiltOnce(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(8, 8), planar.NewRand(9), 1, 1, 1, 9)
	opt := Options{LeafLimit: 12}
	warmTree := func() *artifact.Prepared {
		p := prep(g)
		if _, err := p.Tree(opt.LeafLimit, led()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Grid edges point right or down.
	pairs := [][2]int{{0, g.N() - 1}, {g.N() - 8, 7}, {g.N() - 1, 0}}
	type run struct {
		res *FlowResult
		led []ledger.Entry
	}
	want := make([]run, len(pairs))
	for i, pr := range pairs {
		l := led()
		res, err := MaxFlow(warmTree(), pr[0], pr[1], opt, l)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = run{res, l.Entries()}
	}
	if want[0].res.Value == 0 || want[1].res.Value != 0 || want[1].res.Iterations != 1 || want[2].res.Iterations != 0 {
		t.Fatalf("pairs are not λ* > 0, λ* = 0 probed, λ* = 0 unprobed: %+v %+v %+v", want[0].res, want[1].res, want[2].res)
	}

	p := warmTree()
	got := make([]run, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := pairs[w%len(pairs)]
			l := led()
			res, err := MaxFlow(p, pr[0], pr[1], opt, l)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = run{res, l.Entries()}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want[w%len(pairs)]) {
			t.Fatalf("goroutine %d: %+v, want %+v", w, got[w], want[w%len(pairs)])
		}
	}
	if st := p.Stats(); len(st.Caches) != 1 || st.Caches[0].Bytes <= 0 || st.Caches[0].BuildRounds != 0 {
		t.Fatalf("λ = 0 states: %+v, want one row with bytes and no build rounds", st.Caches)
	}
}

// TestNegativeCapacityPublishesNoState: a graph with a negative capacity
// fails the search before any probe, with the error it always had, and
// leaves no λ = 0 state behind.
func TestNegativeCapacityPublishesNoState(t *testing.T) {
	g := planar.Grid(4, 4).WithEdgeAttrs(func(e int, ed planar.Edge) planar.Edge {
		if e == 5 {
			ed.Cap = -1
		}
		return ed
	})
	p := prep(g)
	_, err := MaxFlow(p, 0, g.N()-1, Options{}, led())
	if err == nil || err.Error() != "core: zero flow infeasible (negative capacity?)" {
		t.Fatalf("err=%v", err)
	}
	if st := p.Stats(); len(st.Caches) != 0 {
		t.Fatalf("published %+v", st.Caches)
	}
}

// TestDartPathIsTheBFSTreePath holds dartPath, whose search stops once t is
// found, to the parent chain of the full undirected BFS from s, on every
// pair of a few graphs: the path the λ search pushes along is unchanged.
func TestDartPathIsTheBFSTreePath(t *testing.T) {
	rng := planar.NewRand(7)
	for _, g := range []*planar.Graph{planar.Grid(5, 6), planar.StackedTriangulation(30, rng), planar.BoustrophedonGrid(4, 5)} {
		for s := 0; s < g.N(); s++ {
			bfs := g.BFS(s)
			for tt := 0; tt < g.N(); tt++ {
				if s == tt {
					continue
				}
				var want []planar.Dart
				for v := tt; v != s; v = g.Tail(bfs.Parent[v]) {
					want = append([]planar.Dart{bfs.Parent[v]}, want...)
				}
				if got, err := dartPath(g, s, tt); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("s=%d t=%d: dartPath %v (%v), BFS tree path %v", s, tt, got, err, want)
				}
			}
		}
	}
}

// TestLambdaBoundMatchesEdgeScan holds lambdaBound, which reads U off the
// rotations at s and t and the negative-capacity check off the graph's
// cached least capacity, to the scan of every edge it replaced (kept here as
// the reference), on every ordered pair of graphs with parallel edges,
// self-loops and flipped directions, with and without a negative capacity.
func TestLambdaBoundMatchesEdgeScan(t *testing.T) {
	scan := func(g *planar.Graph, s, t int) (int64, error) {
		var out, in int64
		for e := 0; e < g.M(); e++ {
			ed := g.Edge(e)
			if ed.Cap < 0 {
				return 0, errors.New("core: zero flow infeasible (negative capacity?)")
			}
			if ed.U == s {
				out += ed.Cap
			}
			if ed.V == t {
				in += ed.Cap
			}
		}
		return min(out, in), nil
	}
	rng := planar.NewRand(5)
	var graphs []*planar.Graph
	for _, g := range []*planar.Graph{planar.Grid(4, 5), planar.StackedTriangulation(30, rng), planar.BoustrophedonGrid(4, 4),
		planar.RemoveRandomEdges(planar.Grid(6, 6), rng, 12)} {
		g = planar.WithRandomDirections(planar.WithRandomWeights(withParallelsAndLoops(g, rng), rng, 1, 9, 0, 9), rng)
		graphs = append(graphs, g, g.WithEdgeAttrs(func(e int, ed planar.Edge) planar.Edge {
			if e == g.M()/2 {
				ed.Cap = -1
			}
			return ed
		}))
	}
	for i, g := range graphs {
		for s := 0; s < g.N(); s++ {
			for tt := 0; tt < g.N(); tt++ {
				if s == tt {
					continue
				}
				u, err := lambdaBound(g, s, tt)
				wantU, wantErr := scan(g, s, tt)
				if u != wantU || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("graph %d s=%d t=%d: lambdaBound %d, %v; edge scan %d, %v", i, s, tt, u, err, wantU, wantErr)
				}
			}
		}
	}
}

// withParallelsAndLoops returns g with every third edge doubled — the copy's
// darts next to the original's in both rotations, so the two bound a
// two-dart face — and a self-loop at every fifth vertex, its darts adjacent
// in the rotation.
func withParallelsAndLoops(g *planar.Graph, rng *rand.Rand) *planar.Graph {
	edges := g.Edges()
	rot := make([][]planar.Dart, g.N())
	for v := range rot {
		rot[v] = slices.Clone(g.Rotation(v))
	}
	insertAfter := func(v int, at, d planar.Dart) {
		i := slices.Index(rot[v], at)
		rot[v] = slices.Insert(rot[v], i+1, d)
	}
	for e := 0; e < g.M(); e += 3 {
		c := len(edges)
		ed := edges[e]
		edges = append(edges, planar.Edge{U: ed.U, V: ed.V})
		insertAfter(ed.U, planar.ForwardDart(e), planar.ForwardDart(c))
		rot[ed.V] = slices.Insert(rot[ed.V], slices.Index(rot[ed.V], planar.BackwardDart(e)), planar.BackwardDart(c))
	}
	for v := 0; v < g.N(); v += 5 {
		c := len(edges)
		edges = append(edges, planar.Edge{U: v, V: v})
		at := rot[v][rng.IntN(len(rot[v]))]
		insertAfter(v, at, planar.ForwardDart(c))
		insertAfter(v, planar.ForwardDart(c), planar.BackwardDart(c))
	}
	return planar.MustGraph(g.N(), edges, rot)
}

// TestLambdaOneByReachability holds MaxFlow's λ = 1 verdict — a BFS over the
// darts a unit of flow can take, forward darts of capacity at least 1 — to
// the search's probe, label.Search.Feasible(1), on every ordered pair of
// graphs whose capacities are drawn from [0, 3], so that zero capacities cut
// pairs apart, with bridges (a path), doubled edges and self-loops among
// them: the same verdict on every pair, and where t is unreachable
// Search.Infeasible(1) charges Feasible(1)'s entries, the abort at the same
// bag's depth among them. MaxFlow's probes and value are lambdaStar's over
// Feasible alone, and a pair with U = 0 probes nothing.
func TestLambdaOneByReachability(t *testing.T) {
	rng := planar.NewRand(54)
	capped := func(g *planar.Graph, directed bool) *planar.Graph {
		g = planar.WithRandomWeights(g, rng, 1, 9, 0, 3)
		if directed {
			g = planar.WithRandomDirections(g, rng)
		}
		return g
	}
	instances := []struct {
		name string
		g    *planar.Graph
		leaf int
	}{
		{"grid4x5", capped(planar.Grid(4, 5), false), 6},
		{"grid4x4-directed", capped(planar.Grid(4, 4), true), 0},
		{"triangulation20", capped(planar.StackedTriangulation(20, rng), false), 8},
		{"triangulation20-directed", capped(planar.StackedTriangulation(20, rng), true), 0},
		{"snake4x4", capped(planar.BoustrophedonGrid(4, 4), true), 6},
		{"sparse5x5", capped(planar.RemoveRandomEdges(planar.Grid(5, 5), rng, 8), true), 0},
		{"path1x6", capped(planar.Grid(1, 6), true), 0},
		{"grid3x4-parallels-loops", capped(withParallelsAndLoops(planar.Grid(3, 4), rng), true), 4},
	}
	ctx := context.Background()
	newSearch := func(fb *artifact.FlowBase, path []planar.Dart) *label.Search {
		t.Helper()
		sv, err := label.NewSearch(fb.Base, path)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	var unreachable, cutByZero, zeroBound int
	for _, in := range instances {
		g, opt := in.g, Options{LeafLimit: in.leaf}
		p, unitCaps := prep(g), zeroCaps(g)
		fb, err := p.FlowBase(opt.LeafLimit, ledger.New())
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < g.N(); s++ {
			for tt := 0; tt < g.N(); tt++ {
				if s == tt {
					continue
				}
				name := fmt.Sprintf("%s s=%d t=%d", in.name, s, tt)
				path, err := dartPath(g, s, tt)
				if err != nil {
					t.Fatal(err)
				}
				reach := bfs(g, s, tt, true, nil)
				probe, probeLed := newSearch(fb, path), ledger.New()
				ok, err := probe.Feasible(ctx, 1, probeLed)
				if err != nil || ok != reach {
					t.Fatalf("%s: reachable=%v, Feasible(1)=%v (%v)", name, reach, ok, err)
				}
				if !reach {
					unreachable++
					if bfs(unitCaps, s, tt, true, nil) {
						cutByZero++
					}
					sv, led := newSearch(fb, path), ledger.New()
					if err := sv.Infeasible(ctx, 1, led); err != nil || !reflect.DeepEqual(led.Entries(), probeLed.Entries()) {
						t.Fatalf("%s: Infeasible(1) charged %v (%v), Feasible(1) %v", name, led.Entries(), err, probeLed.Entries())
					}
					sv.Close()
				}
				lo, iters, err := lambdaStar(g, s, tt, func(lambda int64) (bool, error) {
					return probe.Feasible(ctx, lambda, ledger.New())
				})
				probe.Close()
				if err != nil {
					t.Fatal(err)
				}
				got, err := MaxFlow(p, s, tt, opt, ledger.New())
				if err != nil || got.Value != lo || got.Iterations != iters {
					t.Fatalf("%s: MaxFlow %v after %v probes (%v), lambdaStar over Feasible %d after %d", name, got.Value, got.Iterations, err, lo, iters)
				}
				if u, _ := lambdaBound(g, s, tt); u == 0 {
					zeroBound++
					if iters != 0 {
						t.Fatalf("%s: U = 0 and still %d probes", name, iters)
					}
				}
			}
		}
	}
	if unreachable == 0 || cutByZero == 0 || zeroBound == 0 {
		t.Fatalf("%d unreachable pairs, %d of them cut by zero capacities alone, %d with U = 0: want some of each", unreachable, cutByZero, zeroBound)
	}
	t.Logf("%d unreachable pairs, %d of them cut by zero capacities alone, %d with U = 0", unreachable, cutByZero, zeroBound)
}

// zeroCaps is g with every zero capacity raised to 1: the graph in which a
// pair cut apart by zero capacities alone is reachable.
func zeroCaps(g *planar.Graph) *planar.Graph {
	return g.WithEdgeAttrs(func(_ int, ed planar.Edge) planar.Edge {
		ed.Cap = max(ed.Cap, 1)
		return ed
	})
}
