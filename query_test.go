package planarflow

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestDoEquivalence asserts that Do(Q) is bit-identical — payload and full
// Rounds report, per-phase breakdown included — to the legacy named method
// for every query family. Each side runs on its own fresh PreparedGraph so
// both pay the same (deterministic) build cost.
func TestDoEquivalence(t *testing.T) {
	g := servingGraph()
	gd := BoustrophedonGridGraph(5, 5).WithRandomAttrs(7, 1, 20, 1, 1)
	s, tt := 0, g.N()-1
	ctx := context.Background()

	fresh := func(gr *Graph) *PreparedGraph {
		p, err := Prepare(gr)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("MaxFlow", func(t *testing.T) {
		want, err1 := fresh(g).MaxFlow(s, tt)
		a, err2 := fresh(g).Do(ctx, MaxFlowQuery(s, tt))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got := &FlowResult{Value: a.Value, Flow: a.Flow, Iterations: a.Iterations, Rounds: a.Rounds}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Do diverges from MaxFlow:\n%+v\n%+v", want, got)
		}
	})
	t.Run("MinSTCut", func(t *testing.T) {
		want, err1 := fresh(g).MinSTCut(s, tt)
		a, err2 := fresh(g).Do(ctx, MinSTCutQuery(s, tt))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got := &CutResult{Value: a.Value, Side: a.Side, CutEdges: a.Edges, Rounds: a.Rounds}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("Do diverges from MinSTCut")
		}
	})
	t.Run("STFlowAndSTCut", func(t *testing.T) {
		want, err1 := fresh(g).ApproxMaxFlowSTPlanar(s, tt, 0.1)
		a, err2 := fresh(g).Do(ctx, STFlowQuery(s, tt, 0.1))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got := &ApproxFlowResult{Value: a.Value, Flow: a.Flow, Epsilon: 0.1, Rounds: a.Rounds}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("Do diverges from ApproxMaxFlowSTPlanar")
		}
		wcut, err3 := fresh(g).ApproxMinCutSTPlanar(s, tt, 0)
		ac, err4 := fresh(g).Do(ctx, STCutQuery(s, tt, 0))
		if err3 != nil || err4 != nil {
			t.Fatal(err3, err4)
		}
		gcut := &CutResult{Value: ac.Value, Side: ac.Side, CutEdges: ac.Edges, Rounds: ac.Rounds}
		if !reflect.DeepEqual(wcut, gcut) {
			t.Fatal("Do diverges from ApproxMinCutSTPlanar")
		}
	})
	t.Run("Girth", func(t *testing.T) {
		want, err1 := fresh(g).Girth()
		a, err2 := fresh(g).Do(ctx, GirthQuery())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got := &GirthResult{Weight: a.Value, CycleEdges: a.Edges, Rounds: a.Rounds}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("Do diverges from Girth")
		}
	})
	t.Run("DirectedGirth", func(t *testing.T) {
		want, err1 := fresh(gd).DirectedGirth()
		a, err2 := fresh(gd).Do(ctx, DirectedGirthQuery())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got := &GirthResult{Weight: a.Value, Rounds: a.Rounds}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("Do diverges from DirectedGirth")
		}
	})
	t.Run("GlobalMinCut", func(t *testing.T) {
		want, err1 := fresh(gd).GlobalMinCut()
		a, err2 := fresh(gd).Do(ctx, GlobalMinCutQuery())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got := &CutResult{Value: a.Value, Side: a.Side, CutEdges: a.Edges, Rounds: a.Rounds}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("Do diverges from GlobalMinCut")
		}
	})
	t.Run("DualSSSP", func(t *testing.T) {
		want, err1 := fresh(g).DualSSSP(1)
		a, err2 := fresh(g).Do(ctx, DualSSSPQuery(1))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got := &DualSSSPResult{Source: 1, Dist: a.Dist, NegCycle: a.NegCycle, Rounds: a.Rounds}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("Do diverges from DualSSSP")
		}
	})
	t.Run("PointDistances", func(t *testing.T) {
		pLegacy, pDo := fresh(g), fresh(g)
		first := true
		for u := 0; u < g.N(); u += 7 {
			for v := 0; v < g.N(); v += 5 {
				want, err1 := pLegacy.Dist(u, v)
				a, err2 := pDo.Do(ctx, DistQuery(u, v))
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				// Point decodes have no per-query rounds; the one query
				// that triggers the labeling build carries it as Build.
				if a.Value != want || a.Rounds.Query != 0 {
					t.Fatalf("dist(%d,%d): Do %d (query rounds %d), legacy %d", u, v, a.Value, a.Rounds.Query, want)
				}
				if first && a.Rounds.Build <= 0 {
					t.Fatalf("triggering dist query Build=%d, want > 0", a.Rounds.Build)
				}
				if !first && a.Rounds.Build != 0 {
					t.Fatalf("warm dist query Build=%d, want 0", a.Rounds.Build)
				}
				first = false
			}
		}
		wantD, err1 := pLegacy.DirectedDist(2, 9)
		ad, err2 := pDo.Do(ctx, DirectedDistQuery(2, 9))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ad.Value != wantD {
			t.Fatalf("dirdist: Do %d, legacy %d", ad.Value, wantD)
		}
		wantF, err3 := pLegacy.DualDist(0, g.NumFaces()-1)
		af, err4 := pDo.Do(ctx, DualDistQuery(0, g.NumFaces()-1))
		if err3 != nil || err4 != nil {
			t.Fatal(err3, err4)
		}
		if af.Value != wantF {
			t.Fatalf("dualdist: Do %d, legacy %d", af.Value, wantF)
		}
	})
}

// TestDoErrors asserts Do rejects what the legacy methods reject, with the
// same sentinels, plus the query-plane-specific sentinels.
func TestDoErrors(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		q    Query
		want error
	}{
		{Query{}, ErrUnknownQueryKind},
		{Query{Kind: "warp"}, ErrUnknownQueryKind},
		{DistQuery(-1, 2), ErrVertexRange},
		{DistQuery(0, g.N()), ErrVertexRange},
		{DualDistQuery(0, g.NumFaces()), ErrFaceRange},
		{DualSSSPQuery(g.NumFaces()), ErrFaceRange},
		{MaxFlowQuery(3, 3), ErrSameVertex},
		{STFlowQuery(0, g.N()-1, 1.5), ErrEpsilonRange},
		{STFlowQuery(0, g.N()-1, math.NaN()), ErrEpsilonRange},
		{STCutQuery(0, g.N()-1, math.NaN()), ErrEpsilonRange},
		{MaxFlowQuery(0, 1).WithLeafLimit(-4), ErrLeafLimitRange},
	}
	for _, tc := range cases {
		if _, err := p.Do(ctx, tc.q); !errors.Is(err, tc.want) {
			t.Errorf("Do(%+v) error %v, want %v", tc.q, err, tc.want)
		}
	}
}

// batchQueries is the mixed-family workload the DoBatch tests share.
func batchQueries(g *Graph) []Query {
	n, f := g.N(), g.NumFaces()
	return []Query{
		DistQuery(0, n-1),
		MaxFlowQuery(0, n-1),
		DualSSSPQuery(1),
		GirthQuery(),
		MinSTCutQuery(0, n-1),
		DualDistQuery(0, f-1),
		DistQuery(3, 17),
		STFlowQuery(0, n-1, 0.1),
		DirectedDistQuery(2, 9),
		STCutQuery(0, n-1, 0),
	}
}

// TestDoBatchEquivalence runs a mixed-family batch with a concurrent
// worker pool (exercised under -race) and asserts every answer's payload
// and per-query rounds are identical to the legacy method calls, and that
// the warmup pass stripped every Build charge from the answers.
func TestDoBatchEquivalence(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	queries := batchQueries(g)
	answers, err := p.DoBatch(context.Background(), queries, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(queries) {
		t.Fatalf("batch returned %d answers for %d queries", len(answers), len(queries))
	}
	for i, a := range answers {
		if a == nil || a.Err != nil {
			t.Fatalf("query %d (%s): answer %+v", i, queries[i].Kind, a)
		}
		if a.Kind != queries[i].Kind {
			t.Fatalf("query %d: kind %q answered as %q", i, queries[i].Kind, a.Kind)
		}
		if a.Rounds.Build != 0 {
			t.Fatalf("query %d (%s): Build=%d after warmup, want 0", i, a.Kind, a.Rounds.Build)
		}
	}

	// Legacy ground truth on a fresh bundle (warm after first calls).
	pl, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		a := answers[i]
		legacy, err := pl.Do(nil, q) // fresh-bundle do() shares the legacy path
		if err != nil {
			t.Fatal(err)
		}
		if a.Value != legacy.Value || !reflect.DeepEqual(a.Dist, legacy.Dist) ||
			!reflect.DeepEqual(a.Flow, legacy.Flow) || !reflect.DeepEqual(a.Side, legacy.Side) ||
			!reflect.DeepEqual(a.Edges, legacy.Edges) || a.NegCycle != legacy.NegCycle ||
			a.Iterations != legacy.Iterations {
			t.Fatalf("query %d (%s): batch payload diverges from sequential", i, q.Kind)
		}
		if a.Rounds.Query != legacy.Rounds.Query {
			t.Fatalf("query %d (%s): batch Query rounds %d, sequential %d", i, q.Kind, a.Rounds.Query, legacy.Rounds.Query)
		}
	}

	// And against the named legacy methods proper, for the headline pair.
	flow, err := pl.MaxFlow(0, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if answers[1].Value != flow.Value || !reflect.DeepEqual(answers[1].Flow, flow.Flow) {
		t.Fatal("batch maxflow diverges from legacy MaxFlow")
	}
}

// TestDoBatchIsolation asserts one bad query fails alone: its Answer
// carries the error, every other entry of the batch succeeds.
func TestDoBatchIsolation(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		DistQuery(0, 5),
		MaxFlowQuery(7, 7),       // ErrSameVertex
		DistQuery(0, g.N()+1000), // ErrVertexRange (graph-dependent)
		Query{Kind: "warp"},      // ErrUnknownQueryKind (fails validation)
		GirthQuery(),
	}
	answers, err := p.DoBatch(context.Background(), queries, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := []error{nil, ErrSameVertex, ErrVertexRange, ErrUnknownQueryKind, nil}
	for i, a := range answers {
		if wantErr[i] == nil {
			if a == nil || a.Err != nil {
				t.Fatalf("query %d: unexpected failure %+v", i, a)
			}
			continue
		}
		if a == nil || !errors.Is(a.Err, wantErr[i]) {
			t.Fatalf("query %d: Err=%v, want %v", i, a, wantErr[i])
		}
	}
}

// TestDoBatchCanceled asserts a canceled context settles every entry with
// the cancellation error instead of hanging or panicking.
func TestDoBatchCanceled(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answers, err := p.DoBatch(ctx, batchQueries(g), BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v, want context.Canceled", err)
	}
	for i, a := range answers {
		if a == nil || !errors.Is(a.Err, context.Canceled) {
			t.Fatalf("query %d not settled with cancellation: %+v", i, a)
		}
	}
}

// TestWarm asserts the eager prefetch moves every build out of the first
// query: after Warm, queries over the warmed substrates report Build == 0
// while the construction cost shows up in BuildRounds.
func TestWarm(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b := p.BuildRounds(); b.Total <= 0 {
		t.Fatalf("BuildRounds %d after Warm, want > 0", b.Total)
	}
	if st := p.Stats(); len(st.Substrates) != 3 { // bdd + primal + dual undirected
		t.Fatalf("substrates after default Warm: %d, want 3", len(st.Substrates))
	}
	// maxflow needs only the BDD, which the default set includes.
	res, err := p.MaxFlow(0, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds.Build != 0 {
		t.Fatalf("post-Warm maxflow Build=%d, want 0", res.Rounds.Build)
	}
	if _, err := p.Dist(0, 1); err != nil {
		t.Fatal(err)
	}

	// Named substrates, including one outside the default set.
	if err := p.Warm(nil, SubstrateDualFreeReversal); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); len(st.Substrates) != 4 {
		t.Fatalf("substrates after free-reversal Warm: %d, want 4", len(st.Substrates))
	}
	if err := p.Warm(nil, Substrate("tarmac")); !errors.Is(err, ErrUnknownSubstrate) {
		t.Fatalf("unknown substrate error %v", err)
	}

	// A canceled Warm fails without poisoning the bundle.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p2, err := Prepare(servingGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Warm(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Warm error %v", err)
	}
	if _, err := p2.Dist(0, 1); err != nil {
		t.Fatalf("query after canceled Warm: %v", err)
	}
}

// TestDoBatchConcurrentBatches fires several mixed batches at one bundle
// under -race and cross-checks a stable answer.
func TestDoBatchConcurrentBatches(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Dist(0, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers, err := p.DoBatch(context.Background(), batchQueries(g), BatchOptions{Workers: 3})
			if err != nil {
				t.Error(err)
				return
			}
			if answers[0].Err != nil || answers[0].Value != want {
				t.Errorf("concurrent batch dist: %+v, want %d", answers[0], want)
			}
		}()
	}
	wg.Wait()
}

// TestQueryGoldenJSON pins the wire encoding of every query kind: the
// golden strings are the protocol, and every Query round-trips through
// them losslessly.
func TestQueryGoldenJSON(t *testing.T) {
	golden := []struct {
		q    Query
		json string
	}{
		{DistQuery(3, 5), `{"kind":"dist","u":3,"v":5}`},
		{DirectedDistQuery(2, 9), `{"kind":"dirdist","u":2,"v":9}`},
		{DualDistQuery(0, 7), `{"kind":"dualdist","v":7}`},
		{DualSSSPQuery(4), `{"kind":"dualsssp","source":4}`},
		{MaxFlowQuery(0, 35), `{"kind":"maxflow","v":35}`},
		{MinSTCutQuery(1, 34), `{"kind":"minstcut","u":1,"v":34}`},
		{STFlowQuery(0, 35, 0.25), `{"kind":"stflow","v":35,"eps":0.25}`},
		{STCutQuery(0, 35, 0), `{"kind":"stcut","v":35}`},
		{GirthQuery(), `{"kind":"girth"}`},
		{DirectedGirthQuery(), `{"kind":"dirgirth"}`},
		{GlobalMinCutQuery(), `{"kind":"globalmincut"}`},
		{MaxFlowQuery(0, 35).WithLeafLimit(16).WithoutPhases(),
			`{"kind":"maxflow","v":35,"leaf_limit":16,"no_phases":true}`},
		{GirthQuery().WithSimulated(), `{"kind":"girth","simulated":true}`},
	}
	if kinds := len(QueryKinds); kinds != 11 {
		t.Fatalf("QueryKinds has %d kinds; update the golden table", kinds)
	}
	for _, tc := range golden {
		enc, err := json.Marshal(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != tc.json {
			t.Errorf("Query(%s) encodes as %s, golden %s", tc.q.Kind, enc, tc.json)
		}
		var back Query
		if err := json.Unmarshal([]byte(tc.json), &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.q {
			t.Errorf("golden %s decodes to %+v, want %+v", tc.json, back, tc.q)
		}
	}
}

// TestQuerySubstrates pins the query -> substrate map the warmup pass and
// Warm rely on.
func TestQuerySubstrates(t *testing.T) {
	cases := map[QueryKind][]Substrate{
		QDist:          {SubstratePrimalUndirected},
		QDirectedDist:  {SubstratePrimalDirected},
		QDualDist:      {SubstrateDualUndirected},
		QDualSSSP:      {SubstrateDualUndirected},
		QMaxFlow:       {SubstrateBDD},
		QMinSTCut:      {SubstrateBDD},
		QSTFlow:        {SubstrateMinorAgg},
		QSTCut:         {SubstrateMinorAgg},
		QGirth:         {SubstrateMinorAgg},
		QDirectedGirth: {SubstratePrimalDirected},
		QGlobalMinCut:  {SubstrateDualFreeReversal},
	}
	for kind, want := range cases {
		if got := (Query{Kind: kind}).Substrates(); !reflect.DeepEqual(got, want) {
			t.Errorf("Substrates(%s) = %v, want %v", kind, got, want)
		}
	}
}
