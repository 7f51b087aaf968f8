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

// TestDoErrors asserts Do rejects every malformed query with its sentinel,
// the query-plane-specific ones (unknown kind, leaf limit) included.
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
	res, err := p.Do(nil, MaxFlowQuery(0, g.N()-1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds.Build != 0 {
		t.Fatalf("post-Warm maxflow Build=%d, want 0", res.Rounds.Build)
	}
	if _, err := p.Do(nil, DistQuery(0, 1)); err != nil {
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
	if _, err := p2.Do(nil, DistQuery(0, 1)); err != nil {
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
	want, err := p.Do(nil, DistQuery(0, g.N()-1))
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
			if answers[0].Err != nil || answers[0].Value != want.Value {
				t.Errorf("concurrent batch dist: %+v, want %d", answers[0], want.Value)
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
