package planarflow

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// servingGraph is a directed, weighted instance exercised by the prepared
// tests: random capacities for flow, positive weights for girth/labels.
func servingGraph() *Graph {
	return GridGraph(6, 6).WithRandomAttrs(11, 1, 9, 1, 16)
}

// doFresh answers q on a fresh bundle of g, as a caller with one query
// would.
func doFresh(t *testing.T, g *Graph, q Query) (*Answer, error) {
	t.Helper()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	return p.Do(nil, q)
}

// answer is doFresh for a query that must succeed.
func answer(t *testing.T, g *Graph, q Query) *Answer {
	t.Helper()
	a, err := doFresh(t, g, q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// samePayload reports whether a and b carry the same answer — every
// payload field of Answer — whatever the rounds each bundle paid for it.
func samePayload(a, b *Answer) bool {
	x, y := *a, *b
	x.Rounds, y.Rounds = Rounds{}, Rounds{}
	return reflect.DeepEqual(x, y)
}

// TestPreparedEquivalence is one table over every QueryKind: each query
// answered on a fresh bundle of its own must equal, on every Answer
// payload field, the same query answered on one bundle shared by all the
// queries before it (warm substrates, memoized routes). The point
// distances also match the bundle's DistanceOracle.
func TestPreparedEquivalence(t *testing.T) {
	g := servingGraph()
	gd := BoustrophedonGridGraph(5, 5).WithRandomAttrs(7, 1, 20, 1, 1)
	n, f := g.N(), g.NumFaces()
	ctx := context.Background()
	var points []Query
	for u := 0; u < n; u += 7 {
		for v := 0; v < n; v += 5 {
			points = append(points, DistQuery(u, v), DirectedDistQuery(u, v))
		}
	}
	for f1 := 0; f1 < f; f1 += 4 {
		points = append(points, DualDistQuery(f1, f-1-f1))
	}
	table := []struct {
		name    string
		g       *Graph
		queries []Query
		also    func(t *testing.T, p *PreparedGraph) // further checks on the shared bundle
	}{
		{"MaxFlow", g, []Query{MaxFlowQuery(0, n-1), MaxFlowQuery(3, n-4)}, nil},
		{"MinSTCut", g, []Query{MinSTCutQuery(0, n-1), MinSTCutQuery(3, n-4)}, nil},
		{"ApproxFlowAndCut", g, []Query{STFlowQuery(0, n-1, 0.1), STFlowQuery(0, n-1, 0), STCutQuery(0, n-1, 0)}, nil},
		{"Girth", g, []Query{GirthQuery()}, nil},
		{"DirectedGirthAndGlobalCut", gd, []Query{DirectedGirthQuery(), GlobalMinCutQuery()}, nil},
		{"DualSSSP", g, []Query{DualSSSPQuery(1), DualSSSPQuery(f - 1), DualSSSPQuery(1)}, nil},
		{"OracleVsPreparedDist", g, points, func(t *testing.T, p *PreparedGraph) {
			// The oracle view decodes the same labelings Do does.
			undirected, err := p.DistanceOracle()
			if err != nil {
				t.Fatal(err)
			}
			directed, err := p.DirectedDistanceOracle()
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range points {
				var want int64
				switch q.Kind {
				case QDist:
					want, err = undirected.Dist(q.U, q.V)
				case QDirectedDist:
					want, err = directed.Dist(q.U, q.V)
				case QDualDist:
					want, err = undirected.DualDist(q.U, q.V)
				}
				if err != nil {
					t.Fatal(err)
				}
				if a, err := p.Do(ctx, q); err != nil || a.Value != want {
					t.Fatalf("%+v: Do %+v (%v), oracle %d", q, a, err, want)
				}
			}
		}},
	}
	covered := make(map[QueryKind]bool)
	for _, row := range table {
		for _, q := range row.queries {
			covered[q.Kind] = true
		}
	}
	for _, kind := range QueryKinds {
		if !covered[kind] {
			t.Fatalf("no query for kind %q; update the table", kind)
		}
	}

	shared := map[*Graph]*PreparedGraph{}
	for _, gr := range []*Graph{g, gd} {
		p, err := Prepare(gr)
		if err != nil {
			t.Fatal(err)
		}
		shared[gr] = p
	}
	for _, row := range table {
		t.Run(row.name, func(t *testing.T) {
			p := shared[row.g]
			for _, q := range row.queries {
				fresh, err := Prepare(row.g)
				if err != nil {
					t.Fatal(err)
				}
				cold, err1 := fresh.Do(ctx, q)
				warm, err2 := p.Do(ctx, q)
				if err1 != nil || err2 != nil {
					t.Fatal(q.Kind, err1, err2)
				}
				if !samePayload(cold, warm) {
					t.Fatalf("%+v: fresh bundle %+v, shared bundle %+v", q, cold, warm)
				}
			}
			if row.also != nil {
				row.also(t, p)
			}
		})
	}

}

// TestPreparedAmortization pins the serving contract at the public layer:
// the first query carries Build rounds, later queries of every flavor that
// shares the substrates report Build == 0 while a fresh bundle always
// pays. Point decodes (dist) carry no Query rounds at all.
func TestPreparedAmortization(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	do := func(p *PreparedGraph, q Query) *Answer {
		t.Helper()
		a, err := p.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	first := do(p, MaxFlowQuery(0, g.N()-1))
	if first.Rounds.Build <= 0 {
		t.Fatalf("first query Build=%d, want > 0", first.Rounds.Build)
	}
	if first.Rounds.Build+first.Rounds.Query != first.Rounds.Total {
		t.Fatal("build/query split does not sum to total")
	}
	second := do(p, MaxFlowQuery(0, g.N()-1))
	if second.Rounds.Build != 0 {
		t.Fatalf("second query Build=%d, want 0", second.Rounds.Build)
	}
	if second.Rounds.Query <= 0 || second.Rounds.Total >= first.Rounds.Total {
		t.Fatalf("second query rounds %+v not cheaper than first %+v", second.Rounds, first.Rounds)
	}
	// MinSTCut shares MaxFlow's tree: no further build cost.
	if cut := do(p, MinSTCutQuery(0, g.N()-1)); cut.Rounds.Build != 0 {
		t.Fatalf("min-cut on warm artifact Build=%d, want 0", cut.Rounds.Build)
	}
	// A fresh bundle always pays the build.
	if cold := answer(t, g, MaxFlowQuery(0, g.N()-1)); cold.Rounds.Build != first.Rounds.Build {
		t.Fatalf("fresh-bundle Build=%d, want %d", cold.Rounds.Build, first.Rounds.Build)
	}
	// A point decode is free: the dist query that triggers the labeling
	// carries it as Build, later ones carry nothing.
	for i, q := range []Query{DistQuery(0, g.N()-1), DistQuery(3, 17), DistQuery(0, g.N()-1)} {
		a := do(p, q)
		if a.Rounds.Query != 0 {
			t.Fatalf("dist query %d: Query=%d, want 0", i, a.Rounds.Query)
		}
		if (i == 0) != (a.Rounds.Build > 0) {
			t.Fatalf("dist query %d: Build=%d, want > 0 on the first only", i, a.Rounds.Build)
		}
	}
	// The cumulative build ledger is visible on the prepared graph.
	if b := p.BuildRounds(); b.Total <= 0 || b.Query != 0 {
		t.Fatalf("BuildRounds=%+v, want positive all-build", b)
	}
}

// TestPreparedConcurrentServing fires parallel maxflow/girth/dist/dualsssp
// queries against one PreparedGraph under -race and checks every answer
// against the same query answered alone on a fresh bundle.
func TestPreparedConcurrentServing(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const workers = 8
	queries := []Query{MaxFlowQuery(0, g.N()-1), GirthQuery(), DualSSSPQuery(0)}
	for w := 0; w < workers; w++ {
		queries = append(queries, DistQuery(w%g.N(), (w*13+5)%g.N()))
	}
	want := make([]*Answer, len(queries))
	for i, q := range queries {
		want[i] = answer(t, g, q)
	}

	errs := make(chan error, workers*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range []int{0, 1, 3 + w, 2} {
				a, err := p.Do(ctx, queries[i])
				if err != nil {
					errs <- err
					return
				}
				if !samePayload(a, want[i]) {
					t.Errorf("worker %d: %+v answered %+v, want %+v", w, queries[i], a, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Exactly one build of each substrate despite the stampede: a fresh
	// query reports zero build rounds.
	post, err := p.Do(ctx, MaxFlowQuery(0, g.N()-1))
	if err != nil {
		t.Fatal(err)
	}
	if post.Rounds.Build != 0 {
		t.Fatalf("post-stampede query Build=%d, want 0", post.Rounds.Build)
	}
}
