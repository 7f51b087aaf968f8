package flowd

import (
	"context"
	"strings"
	"testing"

	"planarflow/internal/store"
)

// TestBatchEndToEnd drives the acceptance shape of the batch plane: B=16
// mixed-family queries in one request, per-query isolation (the one bad
// query yields its own error entry, every other entry succeeds), answers
// equal to singleton requests, and exactly one store acquisition for the
// whole batch.
func TestBatchEndToEnd(t *testing.T) {
	c, st := newTestDaemon(t, store.Config{})
	ctx := context.Background()
	spec := store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 3, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
	reg, err := c.Register(ctx, "g", spec)
	if err != nil {
		t.Fatal(err)
	}
	n, faces := reg.N, reg.Faces

	queries := []BatchQuery{
		{Op: "dist", U: 0, V: n - 1},
		{Op: "maxflow", U: 0, V: n - 1},
		{Op: "dualdist", U: 0, V: faces - 1},
		{Op: "dualsssp", Source: 1},
		{Op: "girth"},
		{Op: "minstcut", U: 0, V: n - 1},
		{Op: "dist", U: 3, V: 17},
		{Op: "stflow", U: 0, V: n - 1, Eps: 0.1},
		{Op: "dist", U: 0, V: n + 500}, // out of range: fails alone
		{Op: "stcut", U: 0, V: n - 1},
		{Op: "dirdist", U: 2, V: 9},
		{Op: "dist", U: 1, V: 2},
		{Op: "dualdist", U: 1, V: 2},
		{Op: "dist", U: 5, V: 30},
		{Op: "maxflow", U: 1, V: n - 2},
		{Op: "dist", U: 7, V: 11},
	}
	const badIdx = 8

	resp, err := c.QueryBatch(ctx, BatchRequest{Graph: "g", Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(resp.Results), len(queries))
	}
	for i, res := range resp.Results {
		if i == badIdx {
			if res.Error == "" || !strings.Contains(res.Error, "out of") {
				t.Fatalf("bad query %d: error %q, want vertex-range error", i, res.Error)
			}
			continue
		}
		if res.Error != "" {
			t.Fatalf("query %d (%s) failed: %s", i, res.Op, res.Error)
		}
		if res.Op != queries[i].Op {
			t.Fatalf("query %d: op %q answered as %q", i, queries[i].Op, res.Op)
		}
	}

	// Each batch entry must equal the singleton-request answer.
	for i, q := range queries {
		if i == badIdx {
			continue
		}
		single, err := c.Query(ctx, QueryRequest{Graph: "g", Op: q.Op, U: q.U, V: q.V, Source: q.Source, Eps: q.Eps})
		if err != nil {
			t.Fatal(err)
		}
		res := resp.Results[i]
		if res.Value != single.Value || res.NegCycle != single.NegCycle {
			t.Fatalf("query %d (%s): batch value %d, singleton %d", i, q.Op, res.Value, single.Value)
		}
	}

	// The whole batch was one store acquisition: 1 miss for the batch plus
	// 1 hit per singleton re-check.
	snap := st.Snapshot()
	if got := snap.Hits + snap.Misses; got != 1+int64(len(queries)-1) {
		t.Fatalf("store lookups %d, want %d (one per batch + one per singleton)", got, 1+len(queries)-1)
	}
	if snap.Misses != 1 {
		t.Fatalf("misses %d, want 1 (the batch's single acquisition)", snap.Misses)
	}
}

// TestBatchRejects pins the strict decoder behavior at the HTTP surface.
func TestBatchRejects(t *testing.T) {
	c, _ := newTestDaemon(t, store.Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 4, Cols: 4}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		req  BatchRequest
		frag string
	}{
		{BatchRequest{Graph: "nope", Queries: []BatchQuery{{Op: "girth"}}}, "404"},
		{BatchRequest{Graph: "g"}, "empty query list"},
		{BatchRequest{Graph: "g", Queries: []BatchQuery{{Op: "warp"}}}, "unknown query kind"},
		{BatchRequest{Graph: "g", Queries: []BatchQuery{{Op: "dist", U: -1}}}, "negative id"},
		{BatchRequest{Graph: "g", Queries: []BatchQuery{{Op: "stflow", Eps: 2}}}, "eps"},
		{BatchRequest{Graph: "g", Queries: []BatchQuery{{Op: "girth"}}, Workers: 1000}, "workers"},
		{BatchRequest{Graph: "g", Queries: make([]BatchQuery, MaxBatchQueries+1)}, "exceeds cap"},
	}
	for _, tc := range cases {
		if _, err := c.QueryBatch(ctx, tc.req); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("QueryBatch(%.40v...) error %v, want fragment %q", tc.req, err, tc.frag)
		}
	}
}

// TestRegisterWarmMovesColdStart asserts ?warm=1 builds the serving
// substrates at registration: the first query afterwards is a store hit
// with zero Build rounds.
func TestRegisterWarmMovesColdStart(t *testing.T) {
	c, st := newTestDaemon(t, store.Config{})
	ctx := context.Background()
	reg, err := c.RegisterWarm(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 5, WLo: 1, WHi: 9, CLo: 1, CHi: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Warmed {
		t.Fatal("register with ?warm=1 did not report Warmed")
	}
	if snap := st.Snapshot(); snap.Builds == 0 {
		t.Fatalf("no substrates built by warm registration: %+v", snap)
	}
	resp, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "maxflow", U: 0, V: reg.N - 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit {
		t.Fatal("first query after warm registration missed the bundle")
	}
	if resp.Rounds.Build != 0 {
		t.Fatalf("first query after warm registration paid Build=%d rounds", resp.Rounds.Build)
	}
}

// TestStatszFamilies asserts the per-family query counters on /metricsz:
// counts, errors and rounds per op, across singleton and batch traffic,
// each batch entry counted once.
func TestStatszFamilies(t *testing.T) {
	c, _ := newTestDaemon(t, store.Config{})
	ctx := context.Background()
	reg, err := c.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 5, Cols: 5, Seed: 2, WLo: 1, WHi: 9, CLo: 1, CHi: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: reg.N - 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "maxflow", U: 0, V: reg.N - 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "maxflow", U: 2, V: 2}); err == nil {
		t.Fatal("same-vertex maxflow did not error")
	}
	if _, err := c.QueryBatch(ctx, BatchRequest{Graph: "g", Queries: []BatchQuery{
		{Op: "dist", U: 1, V: 2}, {Op: "girth"},
	}}); err != nil {
		t.Fatal(err)
	}

	m := scrapeMetrics(t, c)
	fam := func(name, op string) float64 { return m[name+`{family="`+op+`"}`] }
	if n, e := fam("flowd_queries_total", "dist"), fam("flowd_query_errors_total", "dist"); n != 4 || e != 0 {
		t.Fatalf("dist counters count=%v errors=%v, want 4 and 0", n, e)
	}
	if n, e, r := fam("flowd_queries_total", "maxflow"), fam("flowd_query_errors_total", "maxflow"),
		fam("flowd_query_rounds_total", "maxflow"); n != 2 || e != 1 || r <= 0 {
		t.Fatalf("maxflow counters count=%v errors=%v rounds=%v, want 2, 1 and > 0", n, e, r)
	}
	if n, r := fam("flowd_queries_total", "girth"), fam("flowd_query_rounds_total", "girth"); n != 1 || r <= 0 {
		t.Fatalf("girth counters count=%v rounds=%v, want 1 and > 0", n, r)
	}
}
