package flowd

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"planarflow/internal/store"
)

// TestTelemetryEndToEnd drives one server's telemetry plane with traffic
// on both of its transports. /metricsz parses strictly before and after a
// 32-query burst split between HTTP and wire; no counter series
// disappears or goes backwards across it; the per-family request counter
// advances and the per-family latency histogram exists on each transport.
// With a 1ns slow threshold a cold-build query lands in /tracez's slow
// ring with its build phase attributed, ?family= and ?min_ms= narrow the
// rings, and a malformed, negative or non-finite min_ms is a 400.
func TestTelemetryEndToEnd(t *testing.T) {
	s := NewServerWith(store.New(store.Config{}), ServerOptions{
		SlowThreshold: time.Nanosecond,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	hsrv := httptest.NewServer(s)
	t.Cleanup(hsrv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Wire().Serve(ln)
	t.Cleanup(func() { s.Wire().Close() })
	c := NewClient(hsrv.URL)
	wc := NewWireClient("tcp", ln.Addr().String(), WireOptions{})
	defer wc.Close()
	transports := []*Client{c, c.WithWireTransport(wc)}

	ctx := context.Background()
	reg, err := c.RegisterWarm(ctx, "g", testSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	queries := []QueryRequest{
		{Graph: "g", Op: "dist", U: 0, V: reg.N - 1},
		{Graph: "g", Op: "dualdist", U: 0, V: reg.Faces - 1},
		{Graph: "g", Op: "maxflow", U: 0, V: reg.N - 1},
		{Graph: "g", Op: "minstcut", U: 0, V: reg.N - 1},
		{Graph: "g", Op: "girth"},
	}

	m1 := scrapeMetrics(t, c)
	for i := 0; i < 32; i++ {
		q := queries[i%len(queries)]
		if _, err := transports[i%2].Query(ctx, q); err != nil {
			t.Fatalf("burst query %d (%s): %v", i, q.Op, err)
		}
	}
	// A substrate build under a query, not under a warm registration: the
	// span's build phase is what the slow ring must attribute.
	regCold, err := c.Register(ctx, "cold", store.GraphSpec{Kind: "grid", Rows: 12, Cols: 12, Seed: 7, WLo: 1, WHi: 9, CLo: 1, CHi: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, QueryRequest{Graph: "cold", Op: "dist", U: 0, V: regCold.N - 1}); err != nil {
		t.Fatal(err)
	}
	m2 := scrapeMetrics(t, c)

	counters := 0
	for k, v1 := range m1 {
		name, _, _ := strings.Cut(k, "{")
		if !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_count") {
			continue
		}
		v2, ok := m2[k]
		if !ok {
			t.Fatalf("series %s disappeared across the burst", k)
		}
		if v2 < v1 {
			t.Fatalf("counter %s went backwards: %v -> %v", k, v1, v2)
		}
		counters++
	}
	if counters == 0 {
		t.Fatal("no _total or _count series on /metricsz")
	}
	distHTTP := `flowd_requests_total{family="dist",transport="http"}`
	if m2[distHTTP] <= m1[distHTTP] {
		t.Fatalf("%s did not advance across the burst: %v -> %v", distHTTP, m1[distHTTP], m2[distHTTP])
	}
	for _, tr := range []string{"http", "wire"} {
		k := `flowd_request_seconds_count{family="dist",transport="` + tr + `"}`
		if m2[k] < 1 {
			t.Fatalf("%s = %v, want >= 1", k, m2[k])
		}
	}

	tracez := func(query string) (int, TraceResponse) {
		t.Helper()
		resp, err := c.hc.Get(c.base + "/tracez" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out TraceResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("/tracez%s: %v", query, err)
			}
		}
		return resp.StatusCode, out
	}
	code, all := tracez("")
	if code != http.StatusOK {
		t.Fatalf("/tracez: status %d", code)
	}
	var cold float64
	for _, sv := range all.Slow {
		if sv.Graph == "cold" && sv.PhasesMS["build"] > 0 {
			cold = sv.TotalMS
		}
	}
	if cold == 0 {
		t.Fatalf("no slow span on graph cold carries a build phase (slow=%d, threshold %vms)", len(all.Slow), all.SlowThresholdMS)
	}

	code, fam := tracez("?family=maxflow")
	if code != http.StatusOK || len(fam.Recent) == 0 || len(fam.Slow) == 0 {
		t.Fatalf("?family=maxflow: status %d, %d recent, %d slow", code, len(fam.Recent), len(fam.Slow))
	}
	for _, sv := range append(fam.Recent, fam.Slow...) {
		if sv.Family != "maxflow" {
			t.Fatalf("?family=maxflow kept a %s span", sv.Family)
		}
	}
	code, slow := tracez("?min_ms=" + strconv.FormatFloat(cold, 'g', -1, 64))
	if code != http.StatusOK || len(slow.Slow) == 0 || len(slow.Slow) >= len(all.Slow) {
		t.Fatalf("?min_ms=%v: status %d, %d of %d slow spans kept", cold, code, len(slow.Slow), len(all.Slow))
	}
	for _, sv := range append(slow.Recent, slow.Slow...) {
		if sv.TotalMS < cold {
			t.Fatalf("?min_ms=%v kept a %vms span", cold, sv.TotalMS)
		}
	}
	for _, v := range []string{"banana", "-1", "NaN", "Inf", "+Inf"} {
		if code, _ := tracez("?min_ms=" + url.QueryEscape(v)); code != http.StatusBadRequest {
			t.Fatalf("?min_ms=%s: status %d, want 400", v, code)
		}
	}
}
