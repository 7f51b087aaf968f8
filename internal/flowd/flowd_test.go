package flowd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"planarflow"
	"planarflow/internal/obs"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

// newTestDaemon spins up an in-process daemon and a client against it.
func newTestDaemon(t *testing.T, cfg store.Config) (*Client, *store.Store) {
	t.Helper()
	st := store.New(cfg)
	srv := httptest.NewServer(NewServerWith(st, ServerOptions{}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), st
}

// scrapeMetrics reads the daemon's /metricsz through c and parses it
// strictly.
func scrapeMetrics(t *testing.T, c *Client) map[string]float64 {
	t.Helper()
	resp, err := c.hc.Get(c.base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz: status %d, %v", resp.StatusCode, err)
	}
	series, err := obs.ParseExposition(raw)
	if err != nil {
		t.Fatalf("/metricsz does not parse: %v", err)
	}
	return series
}

// stats reads the daemon's /statsz.
func (c *Client) stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/statsz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// snapshot asks the daemon to persist graph to its disk tier, or every
// resident bundle when graph is empty.
func (c *Client) snapshot(ctx context.Context, graph string) (*SnapshotResponse, error) {
	var out SnapshotResponse
	if err := c.do(ctx, http.MethodPost, "/v1/snapshot", SnapshotRequest{Graph: graph}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TestStatszKeys pins /statsz to the store's state: exactly the store
// and hit_rate keys. Every count the daemon keeps itself is on /metricsz.
func TestStatszKeys(t *testing.T) {
	srv := NewServerWith(store.New(store.Config{}), ServerOptions{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statsz status %d", rec.Code)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range body {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"hit_rate", "store"}) {
		t.Fatalf("/statsz keys %v, want [hit_rate store]", keys)
	}
}

// TestVersionz pins /versionz to build identity: a 200 carrying the Go
// version, the module, CPU count and GOMAXPROCS, and none of the four
// numbers /metricsz already serves (go_goroutines, go_gc_cycles_total,
// go_memstats_heap_alloc_bytes, flowd_uptime_seconds).
func TestVersionz(t *testing.T) {
	srv := NewServerWith(store.New(store.Config{}), ServerOptions{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/versionz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/versionz status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"go_version": runtime.Version(),
		"num_cpu":    float64(runtime.NumCPU()),
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		want["module"] = bi.Main.Path
	}
	for k, v := range want {
		if body[k] != v {
			t.Errorf("/versionz %s = %v, want %v", k, body[k], v)
		}
	}
	for _, k := range []string{"uptime_ms", "goroutines", "gc_cycles", "heap_alloc_bytes"} {
		if v, ok := body[k]; ok {
			t.Errorf("/versionz carries %s = %v, a /metricsz series", k, v)
		}
	}
}

// TestServersDoNotShareSeries: two servers built with default options in
// one process count into registries of their own, so traffic on A shows
// on A's /metricsz and reads 0 on B's.
func TestServersDoNotShareSeries(t *testing.T) {
	a, _ := newTestDaemon(t, store.Config{})
	b, _ := newTestDaemon(t, store.Config{})
	ctx := context.Background()
	if _, err := a.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 4, Cols: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 15}); err != nil {
			t.Fatal(err)
		}
	}
	reqs, queries := `flowd_requests_total{family="dist",transport="http"}`, `flowd_queries_total{family="dist"}`
	ma, mb := scrapeMetrics(t, a), scrapeMetrics(t, b)
	for _, key := range []string{reqs, queries} {
		v, ok := mb[key]
		if !ok {
			t.Fatalf("B: series %s missing", key)
		}
		if v != 0 {
			t.Fatalf("B: %s = %v after traffic on A only, want 0", key, v)
		}
	}
	if ma[reqs] != 3 || ma[queries] != 3 {
		t.Fatalf("A: %s = %v, %s = %v; want 3 and 3", reqs, ma[reqs], queries, ma[queries])
	}
}

func TestRegisterAndQueryEndToEnd(t *testing.T) {
	c, _ := newTestDaemon(t, store.Config{})
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Graphs != 0 {
		t.Fatalf("fresh daemon health: %+v", h)
	}
	spec := store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 3, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
	reg, err := c.Register(ctx, "g", spec)
	if err != nil {
		t.Fatal(err)
	}
	if reg.N != 36 || reg.M != 60 {
		t.Fatalf("registered grid6x6: n=%d m=%d", reg.N, reg.M)
	}

	// The daemon's answers must match the library run on the same spec.
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	wantDist, err := p.Do(ctx, planarflow.DistQuery(0, g.N()-1))
	if err != nil {
		t.Fatal(err)
	}
	wantFlow, err := p.Do(ctx, planarflow.MaxFlowQuery(0, g.N()-1))
	if err != nil {
		t.Fatal(err)
	}

	qr, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: g.N() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Value != wantDist.Value {
		t.Fatalf("dist over the wire %d, in-process %d", qr.Value, wantDist.Value)
	}
	if qr.Hit {
		t.Fatal("first query reported a resident bundle")
	}
	qr2, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "maxflow", U: 0, V: g.N() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if qr2.Value != wantFlow.Value {
		t.Fatalf("maxflow over the wire %d, in-process %d", qr2.Value, wantFlow.Value)
	}
	if !qr2.Hit {
		t.Fatal("second query missed the resident bundle")
	}
	if qr2.Rounds.Total == 0 {
		t.Fatal("maxflow reported zero rounds")
	}
	// Max-flow = min-cut duality holds over the wire too.
	qrCut, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "minstcut", U: 0, V: g.N() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if qrCut.Value != qr2.Value {
		t.Fatalf("minstcut over the wire %d, maxflow %d", qrCut.Value, qr2.Value)
	}

	// dualsssp returns the per-face vector.
	qr3, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "dualsssp", Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	wantSSSP, err := p.Do(ctx, planarflow.DualSSSPQuery(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr3.Dist) != g.NumFaces() || !slices.Equal(qr3.Dist, wantSSSP.Dist) {
		t.Fatalf("dualsssp over the wire %v, in-process %v", qr3.Dist, wantSSSP.Dist)
	}

	st, err := c.stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Graphs != 1 || st.Store.Hits+st.Store.Misses != 4 {
		t.Fatalf("statsz: %+v", st.Store)
	}
	if gs := st.Store.PerGraph; len(gs) != 1 || gs[0].ID != "g" || !gs[0].Resident {
		t.Fatalf("graphs listing: %+v", gs)
	}
}

// TestConcurrentClientsShareBuilds hammers one graph from many goroutines
// through the HTTP surface and checks the substrate singleflight held:
// every response agrees and the store accounted one construction.
func TestConcurrentClientsShareBuilds(t *testing.T) {
	c, st := newTestDaemon(t, store.Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 8, Cols: 8, Seed: 9, WLo: 1, WHi: 9, CLo: 1, CHi: 9}); err != nil {
		t.Fatal(err)
	}
	const workers = 12
	vals := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 63})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			vals[i] = qr.Value
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if vals[i] != vals[0] {
			t.Fatalf("worker %d got %d, worker 0 got %d", i, vals[i], vals[0])
		}
	}
	snap := st.Snapshot()
	if snap.Builds != 2 { // bdd + undirected primal labeling, built once
		t.Fatalf("substrates built %d, want 2", snap.Builds)
	}
	if snap.Misses != 1 {
		t.Fatalf("misses %d, want 1", snap.Misses)
	}
}

func TestEvictionVisibleOnStatsz(t *testing.T) {
	// Measure one bundle, then budget for ~1.5 bundles and register two
	// graphs: serving both must evict.
	spec := store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 1, WLo: 1, WHi: 9}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(nil, planarflow.DistQuery(0, 1)); err != nil {
		t.Fatal(err)
	}
	unit := p.Stats().Bytes

	c, _ := newTestDaemon(t, store.Config{MaxBytes: unit + unit/2})
	ctx := context.Background()
	for i, id := range []string{"a", "b"} {
		sp := spec
		sp.Seed = int64(i + 1)
		if _, err := c.Register(ctx, id, sp); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		for _, id := range []string{"a", "b"} {
			if _, err := c.Query(ctx, QueryRequest{Graph: id, Op: "dist", U: 0, V: 35}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := c.stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Evictions == 0 {
		t.Fatalf("no evictions under a one-bundle budget: %+v", st.Store)
	}
	if st.Store.Bytes > st.Store.MaxBytes {
		t.Fatalf("resting bytes %d over budget %d", st.Store.Bytes, st.Store.MaxBytes)
	}
}

// TestMalformedBodies sends each JSON endpoint the ways a body can be
// wrong and pins the 400 and its error string. The strings were
// captured from the daemon while each handler still hand-rolled its own
// strict decode; one shared decoder must not change a byte of them.
func TestMalformedBodies(t *testing.T) {
	srv := NewServerWith(store.New(store.Config{}), ServerOptions{})
	cases := []struct{ path, body, want string }{
		{"/v1/query", ``, "flowd: bad query: EOF"},
		{"/v1/query", `{`, "flowd: bad query: unexpected EOF"},
		{"/v1/query", `[]`, "flowd: bad query: json: cannot unmarshal array into Go value of type flowd.QueryRequest"},
		{"/v1/query", `{"bogus":1}`, "flowd: bad query: json: unknown field \"bogus\""},
		{"/v1/query", `{"graph":"g","op":"girth","simulated":true}`, "flowd: bad query: json: unknown field \"simulated\""},
		{"/v1/query", `{"graph":7}`, "flowd: bad query: json: cannot unmarshal number into Go struct field QueryRequest.graph of type string"},
		{"/v1/query", `{"graph":"g","op":"dist"} x`, "flowd: bad query: trailing data after JSON object"},
		{"/v1/query", `{"op":"dist"}`, "flowd: bad query: store: bad graph id: length 0 out of [1, 256]"},
		{"/v1/query", `{"graph":"g","op":"nope"}`, "flowd: bad query: planarflow: query kind \"nope\": unknown query kind"},
		{"/v1/query", `{"graph":"g","op":"dist","u":-1}`, "flowd: bad query: planarflow: dist query with negative id (u=-1 v=0): vertex out of range"},
		{"/v1/batch", ``, "flowd: bad batch: EOF"},
		{"/v1/batch", `{`, "flowd: bad batch: unexpected EOF"},
		{"/v1/batch", `[]`, "flowd: bad batch: json: cannot unmarshal array into Go value of type flowd.BatchRequest"},
		{"/v1/batch", `{"bogus":1}`, "flowd: bad batch: json: unknown field \"bogus\""},
		{"/v1/batch", `{"graph":"g","queries":[{"op":"girth","simulated":true}]}`, "flowd: bad batch: json: unknown field \"simulated\""},
		{"/v1/batch", `{"graph":7}`, "flowd: bad batch: json: cannot unmarshal number into Go struct field BatchRequest.graph of type string"},
		{"/v1/batch", `{"graph":"g","queries":[{"op":"girth"}]} x`, "flowd: bad batch: trailing data after JSON object"},
		{"/v1/batch", `{"queries":[{"op":"girth"}]}`, "flowd: bad batch: store: bad graph id: length 0 out of [1, 256]"},
		{"/v1/batch", `{"graph":"g","queries":[]}`, "flowd: bad batch: empty query list"},
		{"/v1/batch", `{"graph":"g","queries":[{"op":"girth"}],"workers":-1}`, "flowd: bad batch: workers=-1 out of [0, 64]"},
		{"/v1/graphs", ``, "flowd: bad register: EOF"},
		{"/v1/graphs", `{`, "flowd: bad register: unexpected EOF"},
		{"/v1/graphs", `[]`, "flowd: bad register: json: cannot unmarshal array into Go value of type flowd.RegisterRequest"},
		{"/v1/graphs", `{"bogus":1}`, "flowd: bad register: json: unknown field \"bogus\""},
		{"/v1/graphs", `{"id":7}`, "flowd: bad register: json: cannot unmarshal number into Go struct field RegisterRequest.id of type string"},
		{"/v1/graphs", `{"spec":{}}`, "flowd: bad register: store: bad graph id: length 0 out of [1, 256]"},
		// Weights of 2^52 on a 4x4 grid break the weight contract.
		{"/v1/graphs", `{"id":"g","spec":{"kind":"grid","rows":4,"cols":4,"w_lo":4503599627370496,"w_hi":4503599627370496}}`,
			"store: register \"g\": planarflow: edge 0: (n+1)·(Σ|w|+Σ|cap|) exceeds 2^53: weights and capacities out of range"},
		// A range wider than int64 is refused before generation draws from it.
		{"/v1/graphs", `{"id":"g","spec":{"kind":"grid","rows":3,"cols":3,"w_lo":-4611686018427387904,"w_hi":4611686018427387904}}`,
			"store: weight or capacity range wider than int64: weights and capacities out of range"},
		// Every spec GraphSpec.Validate refuses is the client's error.
		{"/v1/graphs", `{"id":"g","spec":{"kind":"nope"}}`, "store: bad graph spec: unknown kind \"nope\""},
		{"/v1/graphs", `{"id":"g","spec":{"kind":"grid","rows":1,"cols":9}}`, "store: bad graph spec: grid needs rows, cols >= 2 (got 1x9)"},
		{"/v1/graphs", `{"id":"g","spec":{"kind":"cylinder","rows":3,"cols":2}}`, "store: bad graph spec: cylinder needs cols >= 3 (got 2)"},
		{"/v1/graphs", `{"id":"g","spec":{"kind":"snake","rows":4096,"cols":4096}}`, "store: bad graph spec: snake 4096x4096 exceeds 1048576 vertices"},
		{"/v1/graphs", `{"id":"g","spec":{"kind":"triangulation","n":2}}`, "store: bad graph spec: triangulation needs 3 <= n <= 1048576 (got 2)"},
		{"/v1/graphs", `{"id":"g","spec":{"kind":"grid","rows":3,"cols":3,"w_lo":5,"w_hi":2}}`, "store: bad graph spec: weight range [5, 2] is empty"},
		{"/v1/graphs", `{"id":"g","spec":{"kind":"grid","rows":3,"cols":3,"c_lo":5,"c_hi":2}}`, "store: bad graph spec: capacity range [5, 2] is empty"},
		{"/v1/snapshot", ``, "flowd: bad snapshot request: EOF"},
		{"/v1/snapshot", `{`, "flowd: bad snapshot request: unexpected EOF"},
		{"/v1/snapshot", `[]`, "flowd: bad snapshot request: json: cannot unmarshal array into Go value of type flowd.SnapshotRequest"},
		{"/v1/snapshot", `{"bogus":1}`, "flowd: bad snapshot request: json: unknown field \"bogus\""},
		{"/v1/snapshot", `{"graph":7}`, "flowd: bad snapshot request: json: cannot unmarshal number into Go struct field SnapshotRequest.graph of type string"},
		{"/v1/restore", ``, "flowd: bad restore request: EOF"},
		{"/v1/restore", `{`, "flowd: bad restore request: unexpected EOF"},
		{"/v1/restore", `[]`, "flowd: bad restore request: json: cannot unmarshal array into Go value of type flowd.RestoreRequest"},
		{"/v1/restore", `{"bogus":1}`, "flowd: bad restore request: json: unknown field \"bogus\""},
		{"/v1/restore", `{"graph":7}`, "flowd: bad restore request: json: cannot unmarshal number into Go struct field RestoreRequest.graph of type string"},
		{"/v1/restore", `{"graph":"g"} x`, "flowd: bad restore request: trailing data after JSON object"},
		{"/v1/restore", `{}`, "flowd: bad restore request: missing graph id"},
		// Stricter than it used to be: these two handlers skipped the
		// trailing-data check the other three made.
		{"/v1/graphs", `{"id":"g","spec":{"kind":"grid","rows":3,"cols":3}} x`, "flowd: bad register: trailing data after JSON object"},
		{"/v1/snapshot", `{} x`, "flowd: bad snapshot request: trailing data after JSON object"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s %q: undecodable error body %q", c.path, c.body, rec.Body.Bytes())
			continue
		}
		if rec.Code != http.StatusBadRequest || e.Error != c.want {
			t.Errorf("%s %q: got %d %q, want 400 %q", c.path, c.body, rec.Code, e.Error, c.want)
		}
	}
	for _, err := range []error{planarflow.ErrWeightRange, store.ErrBadSpec} {
		if got := wireStatusOf(fmt.Errorf("x: %w", err)); got != wire.StatusBadRequest {
			t.Errorf("%v on the wire: status %v, want StatusBadRequest", err, got)
		}
	}
}
