package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

// startFront boots n replicas behind an httptest front plane; with wire
// set, the replicas serve the binary transport and the fleet routes
// queries over it.
func startFront(t *testing.T, n int, wire bool) (*front, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	reps := make([]*fleet.Replica, n)
	members := make([]fleet.Member, n)
	for i := range reps {
		r, err := fleet.StartReplica(fleet.ReplicaConfig{
			Name:   fmt.Sprintf("r%d", i),
			Store:  store.Config{SpillDir: dir},
			Wire:   wire,
			Logger: quiet,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		members[i] = r.Member()
		t.Cleanup(r.Stop)
	}
	fc, err := fleet.New(members, fleet.Options{ProbeInterval: -1, Wire: wire})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	f := &front{fc: fc, reps: reps, start: time.Now(), slowMS: 250}
	srv := httptest.NewServer(f.mux())
	t.Cleanup(srv.Close)
	return f, srv
}

func postJSON(t *testing.T, url string, body string, header http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFrontStatusAgreesAcrossPlanes sends the same failing requests
// through a front routing over HTTP and one routing queries over the
// wire: each request must get the same status from both, the class the
// replica chose.
func TestFrontStatusAgreesAcrossPlanes(t *testing.T) {
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad vertex", "/v1/query", `{"graph":"g","op":"dist","u":0,"v":99}`, http.StatusBadRequest},
		{"unknown graph", "/v1/query", `{"graph":"nope","op":"dist","u":0,"v":1}`, http.StatusNotFound},
		{"bad spec", "/v1/graphs", `{"id":"h","spec":{"kind":"nope"}}`, http.StatusBadRequest},
	}
	for _, wire := range []bool{false, true} {
		_, srv := startFront(t, 2, wire)
		resp := postJSON(t, srv.URL+"/v1/graphs", `{"id":"g","spec":{"kind":"grid","rows":3,"cols":3}}`, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wire=%v: register: status %d", wire, resp.StatusCode)
		}
		for _, c := range cases {
			resp := postJSON(t, srv.URL+c.path, c.body, nil)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("wire=%v: %s: status %d (%s), want %d", wire, c.name, resp.StatusCode, bytes.TrimSpace(body), c.want)
			}
		}
	}
}

func TestFleetTracezEndpoint(t *testing.T) {
	_, srv := startFront(t, 2, false)

	spec := `{"kind":"grid","rows":6,"cols":6,"seed":5,"w_lo":1,"w_hi":9,"c_lo":1,"c_hi":16}`
	resp := postJSON(t, srv.URL+"/v1/graphs", `{"id":"g","spec":`+spec+`}`, nil)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	// Query with an inbound trace: the front must continue it down
	// through the fleet client to the owning replica.
	tc := obs.NewTrace()
	hdr := http.Header{}
	hdr.Set(obs.TraceHeader, tc.String())
	resp = postJSON(t, srv.URL+"/v1/query", `{"graph":"g","op":"dist","u":0,"v":35}`, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	get := func(path string) (*http.Response, []byte) {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, body
	}

	r, body := get("/fleettracez")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fleettracez: status %d: %s", r.StatusCode, body)
	}
	var tr fleetTraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("fleettracez decode: %v", err)
	}
	var found *obs.TraceView
	for i := range tr.Traces {
		if tr.Traces[i].TraceID == tc.TraceID() {
			found = &tr.Traces[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("inbound trace %s not stitched on /fleettracez: %+v", tc.TraceID(), tr.Traces)
	}
	if found.Hops < 2 {
		t.Fatalf("stitched trace hops = %d, want >= 2 (fleet hop + replica hop)", found.Hops)
	}

	// Family filter keeps the trace (its spans include family "dist"),
	// a non-matching family drops it.
	r, body = get("/fleettracez?family=dist")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fleettracez?family: status %d", r.StatusCode)
	}
	var filtered fleetTraceResponse
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, tv := range filtered.Traces {
		if tv.TraceID == tc.TraceID() {
			seen = true
		}
		for _, sp := range tv.Spans {
			if sp.Family != "dist" {
				t.Fatalf("family filter leaked span %+v", sp)
			}
		}
	}
	if !seen {
		t.Fatalf("family=dist filter dropped the trace entirely")
	}

	// A malformed, negative or non-finite min_ms must 400, not 500 or a
	// 200 that silently matches all or nothing (NaN >= x is false).
	if r, _ = get("/fleettracez?min_ms=banana"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad min_ms: status %d, want 400", r.StatusCode)
	}
	for _, v := range []string{"-1", "NaN", "Inf", "%2BInf"} {
		if r, _ = get("/fleettracez?min_ms=" + v); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("min_ms=%s: status %d, want 400", v, r.StatusCode)
		}
	}
}

func TestFleetzJournal(t *testing.T) {
	f, srv := startFront(t, 2, false)
	f.fc.RecordDrain("r0")

	r, err := http.Get(srv.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var fz fleetzResponse
	if err := json.NewDecoder(r.Body).Decode(&fz); err != nil {
		t.Fatal(err)
	}
	if len(fz.Journal) == 0 {
		t.Fatal("journal absent from /fleetz")
	}
	if fz.Journal[0].Type != obs.EventDrain || fz.Journal[0].Member != "r0" {
		t.Fatalf("journal head = %+v, want the drain event", fz.Journal[0])
	}
	if fz.Journal[0].Seq == 0 || fz.Journal[0].UnixMS == 0 {
		t.Fatalf("journal event missing stamps: %+v", fz.Journal[0])
	}
}

// TestMetricszCarriesProcessWideLayers: the store, artifact, decode and
// wire layers record on obs.Default() while every replica serves its own
// registry, so both a replica's /metricsz and the front's merged page
// must render the process-wide registry too — otherwise the build phase
// is invisible exactly where there is a fleet. One cold query through a
// replica must show on both pages, and both must parse strictly.
func TestMetricszCarriesProcessWideLayers(t *testing.T) {
	f, srv := startFront(t, 2, false)
	ctx := context.Background()
	rep := f.reps[0]
	cl := flowd.NewClient(rep.Member().HTTP)
	spec := store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 9, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
	if _, err := cl.Register(ctx, "cold", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, flowd.QueryRequest{Graph: "cold", Op: "dist", U: 0, V: 35}); err != nil {
		t.Fatal(err)
	}
	// A first stflow builds the graph's minor-aggregation prices.
	if _, err := cl.Query(ctx, flowd.QueryRequest{Graph: "cold", Op: "stflow", U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}

	for _, page := range []struct{ name, url string }{
		{"replica", rep.Member().HTTP + "/metricsz"},
		{"front", srv.URL + "/metricsz"},
	} {
		r, err := http.Get(page.url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		series, err := obs.ParseExposition(body)
		if err != nil {
			t.Fatalf("%s /metricsz does not parse: %v", page.name, err)
		}
		for _, key := range []string{
			"store_acquire_seconds_count",
			`substrate_build_seconds_count{substrate="bdd"}`,
			`substrate_build_seconds_count{substrate="minoragg"}`,
			`flowd_requests_total{family="dist",transport="http"}`,
		} {
			if series[key] < 1 {
				t.Errorf("%s /metricsz: %s = %v, want >= 1", page.name, key, series[key])
			}
		}
		for _, key := range []string{
			"store_evictions_total", "decode_row_hits_total", "wire_write_queue_seconds_count",
		} {
			if _, ok := series[key]; !ok {
				t.Errorf("%s /metricsz: series %s missing", page.name, key)
			}
		}
	}
}

// TestMetricszStoreCountsPerReplica: each replica's /metricsz carries its
// own store's eviction and elided-spill counts, equal to its own /statsz,
// however many evictions a co-hosted replica ran; the front's merged page
// carries their sum.
func TestMetricszStoreCountsPerReplica(t *testing.T) {
	f, srv := startFront(t, 2, false)
	ctx := context.Background()
	spec := store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 9, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
	// r0: three evictions — the first spills, the two after it restore
	// from that file and elide their spills. r1: one eviction.
	for i, evictions := range []int{3, 1} {
		rep := f.reps[i]
		cl := flowd.NewClient(rep.Member().HTTP)
		if _, err := cl.Register(ctx, "g", spec); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < evictions; n++ {
			if _, err := cl.Query(ctx, flowd.QueryRequest{Graph: "g", Op: "dist", U: 0, V: 35}); err != nil {
				t.Fatal(err)
			}
			rep.Store.EvictAll()
		}
	}
	page := func(url string) map[string]float64 {
		t.Helper()
		r, err := http.Get(url + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		series, err := obs.ParseExposition(body)
		if err != nil {
			t.Fatalf("%s/metricsz does not parse: %v", url, err)
		}
		return series
	}
	var sum store.Stats
	for _, rep := range f.reps {
		r, err := http.Get(rep.Member().HTTP + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st flowd.StatsResponse
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatalf("%s/statsz: %v", rep.Name, err)
		}
		series := page(rep.Member().HTTP)
		if got := series["store_evictions_total"]; got != float64(st.Store.Evictions) {
			t.Errorf("%s: store_evictions_total %v, /statsz evictions %d", rep.Name, got, st.Store.Evictions)
		}
		if got := series["store_spills_elided_total"]; got != float64(st.Store.SpillsElided) {
			t.Errorf("%s: store_spills_elided_total %v, /statsz spills_elided %d", rep.Name, got, st.Store.SpillsElided)
		}
		sum.Evictions += st.Store.Evictions
		sum.SpillsElided += st.Store.SpillsElided
	}
	if sum.Evictions != 4 || sum.SpillsElided != 2 {
		t.Fatalf("evictions %d, spills elided %d across replicas; want 4 and 2", sum.Evictions, sum.SpillsElided)
	}
	front := page(srv.URL)
	if front["store_evictions_total"] != 4 || front["store_spills_elided_total"] != 2 {
		t.Errorf("front: store_evictions_total %v, store_spills_elided_total %v; want 4 and 2",
			front["store_evictions_total"], front["store_spills_elided_total"])
	}
}

// TestMetricszRuntimeGaugesOnce: the Go runtime gauges live on the
// process-wide registry alone, so the front's merged page, which renders
// every replica's registry beside it, reports the process's GC count
// once, not once per replica.
func TestMetricszRuntimeGaugesOnce(t *testing.T) {
	_, srv := startFront(t, 3, false)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	r, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	series, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("front /metricsz does not parse: %v", err)
	}
	if got := series["go_gc_cycles_total"]; got != float64(ms.NumGC) {
		t.Fatalf("front go_gc_cycles_total = %v, runtime NumGC = %d", got, ms.NumGC)
	}
}

// TestMetricszUptimeOnce: the daemon's uptime lives on the process-wide
// registry too, so three replicas behind the front do not show three times
// the time since they started.
func TestMetricszUptimeOnce(t *testing.T) {
	began := time.Now()
	_, srv := startFront(t, 3, false)
	time.Sleep(20 * time.Millisecond)
	r, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	series, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("front /metricsz does not parse: %v", err)
	}
	wall := time.Since(began).Seconds()
	if got, ok := series["flowd_uptime_seconds"]; !ok || got <= 0 || got > wall {
		t.Fatalf("front flowd_uptime_seconds = %v (present %v), wall time since the test began %.3fs", got, ok, wall)
	}
}
