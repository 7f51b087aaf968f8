package flowd

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"planarflow/internal/obs"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

// newWireDaemon spins up one daemon serving both planes: the HTTP mux on
// an httptest server and the wire transport on an ephemeral loopback TCP
// listener (plus UDS when udsDir is non-empty). Returns the HTTP client,
// the wire address, and the UDS path ("" if unused).
func newWireDaemon(t *testing.T, cfg store.Config, udsDir string) (*Client, *Server, string, string) {
	t.Helper()
	st := store.New(cfg)
	s := NewServerWith(st, ServerOptions{})
	hsrv := httptest.NewServer(s)
	t.Cleanup(hsrv.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Wire().Serve(ln)
	t.Cleanup(func() { s.Wire().Close() })

	uds := ""
	if udsDir != "" {
		uds = filepath.Join(udsDir, "flowd.sock")
		uln, err := net.Listen("unix", uds)
		if err != nil {
			t.Fatal(err)
		}
		go s.Wire().Serve(uln)
	}
	return NewClient(hsrv.URL), s, ln.Addr().String(), uds
}

// marshalDeterministic renders a QueryResponse for comparison with the
// timing field zeroed (WallMS is wall clock, everything else must be
// bit-identical between transports).
func marshalDeterministic(t *testing.T, r *QueryResponse) string {
	t.Helper()
	cp := *r
	cp.WallMS = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireDifferentialIdentity is the tentpole's correctness gate: the
// identical request sequence — every query family on a grid and a
// triangulation, cold through warm — replayed against three identically
// configured daemons, one over HTTP and two over the wire transport
// (TCP and UDS), must produce bit-identical QueryResponses at every
// step: full JSON including hit bits and round counts (WallMS is wall
// clock and excepted). Replaying the whole sequence per daemon means
// cache-state evolution (first query builds, later ones hit) is part of
// what must match — the wire plane is transport, not semantics.
func TestWireDifferentialIdentity(t *testing.T) {
	ctx := context.Background()

	httpRef, _, _, _ := newWireDaemon(t, store.Config{}, "")
	tcpC, _, tcpAddr, _ := newWireDaemon(t, store.Config{}, "")
	udsC, _, _, uds := newWireDaemon(t, store.Config{}, t.TempDir())

	wcTCP := NewWireClient("tcp", tcpAddr, WireOptions{})
	defer wcTCP.Close()
	wcUDS := NewWireClient("unix", uds, WireOptions{PoolSize: 1})
	defer wcUDS.Close()
	targets := []struct {
		name  string
		admin *Client // registers on its own daemon (HTTP control plane)
		query *Client // queries over the wire transport
	}{
		{"wire-tcp", tcpC, tcpC.WithWireTransport(wcTCP)},
		{"wire-uds", udsC, udsC.WithWireTransport(wcUDS)},
	}

	graphs := []struct {
		id   string
		spec store.GraphSpec
	}{
		{"grid", store.GraphSpec{Kind: "grid", Rows: 7, Cols: 7, Seed: 11, WLo: 1, WHi: 9, CLo: 1, CHi: 16}},
		{"tri", store.GraphSpec{Kind: "triangulation", N: 40, Seed: 5, WLo: 1, WHi: 9, CLo: 1, CHi: 16}},
	}
	var gridN int
	for _, g := range graphs {
		reg, err := httpRef.Register(ctx, g.id, g.spec)
		if err != nil {
			t.Fatal(err)
		}
		if g.id == "grid" {
			gridN = reg.N
		}
		for _, tg := range targets {
			if _, err := tg.admin.Register(ctx, g.id, g.spec); err != nil {
				t.Fatalf("%s register: %v", tg.name, err)
			}
		}
		// The same sequence twice: pass 0 exercises cold builds (hit=false,
		// build rounds), pass 1 the warm path (hit=true) — both must match.
		for pass := 0; pass < 2; pass++ {
			for _, req := range FamilyChecks(g.id, reg.N, reg.Faces) {
				want, err := httpRef.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s/%s http: %v", g.id, req.Op, err)
				}
				wantJSON := marshalDeterministic(t, want)
				for _, tg := range targets {
					got, err := tg.query.Query(ctx, req)
					if err != nil {
						t.Fatalf("%s/%s %s: %v", g.id, req.Op, tg.name, err)
					}
					if gotJSON := marshalDeterministic(t, got); gotJSON != wantJSON {
						t.Errorf("%s/%s pass %d: %s answer diverges from http:\n http: %s\n wire: %s",
							g.id, req.Op, pass, tg.name, wantJSON, gotJSON)
					}
				}
			}
		}
	}

	// Batch parity at the same sequence point: the same queries shipped as
	// one OpBatchB frame must match the HTTP batch route result for result.
	breq := BatchRequest{Graph: "grid", Queries: []BatchQuery{
		{Op: "dist", U: 0, V: gridN - 1}, {Op: "maxflow", U: 0, V: gridN - 1}, {Op: "girth"},
	}}
	hb, err := httpRef.QueryBatch(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		wb, err := tg.query.QueryBatch(ctx, breq)
		if err != nil {
			t.Fatalf("%s batch: %v", tg.name, err)
		}
		hb.WallMS, wb.WallMS = 0, 0
		hj, _ := json.Marshal(hb)
		wj, _ := json.Marshal(wb)
		if string(hj) != string(wj) {
			t.Errorf("%s batch diverges:\n http: %s\n wire: %s", tg.name, hj, wj)
		}
	}
}

// TestWireErrorParity pins what the wire plane does with a failure no
// route shares: a garbage frame comes back as StatusBadRequest and the
// connection survives it, and the cancellation statuses errors.Is-match
// the context sentinels as they would in-process. Which status each error
// class gets on every route is TestEveryRouteAgrees's.
func TestWireErrorParity(t *testing.T) {
	_, _, addr, _ := newWireDaemon(t, store.Config{}, "")
	wc := NewWireClient("tcp", addr, WireOptions{PoolSize: 1})
	defer wc.Close()
	ctx := context.Background()

	// Malformed frames at the decode layer: garbage JSON must come back
	// as StatusBadRequest, not kill the connection.
	status, body, err := wc.pool.Do(ctx, wire.OpQuery, []byte("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if status != wire.StatusBadRequest || len(body) == 0 {
		t.Fatalf("garbage query: (%v, %q)", status, body)
	}
	if err := wc.Ping(ctx); err != nil {
		t.Fatalf("conn did not survive a bad request: %v", err)
	}

	// The sentinel mapping itself.
	if !errors.Is(&StatusError{Status: wire.StatusCanceled}, context.Canceled) {
		t.Error("StatusCanceled does not match context.Canceled")
	}
	if !errors.Is(&StatusError{Status: wire.StatusTimeout}, context.DeadlineExceeded) {
		t.Error("StatusTimeout does not match context.DeadlineExceeded")
	}
	if errors.Is(&StatusError{Status: wire.StatusNotFound}, context.Canceled) {
		t.Error("StatusNotFound must not match context.Canceled")
	}
}

// TestStatszTransportCounters: the counters /statsz's transport section
// used to carry are read off /metricsz, the wire plane's server-role
// series, once traffic has flowed — including the batch shape
// (wire_coalesced_*) the server records per batch frame.
func TestStatszTransportCounters(t *testing.T) {
	hc, _, addr, _ := newWireDaemon(t, store.Config{}, "")
	ctx := context.Background()
	if _, err := hc.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 4, Cols: 4, Seed: 2, WLo: 1, WHi: 5, CLo: 1, CHi: 8}); err != nil {
		t.Fatal(err)
	}
	wc := NewWireClient("tcp", addr, WireOptions{})
	defer wc.Close()
	qc := hc.WithWireTransport(wc)
	for i := 0; i < 5; i++ {
		if _, err := qc.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 15}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := qc.QueryBatch(ctx, BatchRequest{Graph: "g", Queries: []BatchQuery{
		{Op: "dist", U: 0, V: 15}, {Op: "dist", U: 1, V: 14}, {Op: "girth"},
	}}); err != nil {
		t.Fatal(err)
	}

	m := scrapeMetrics(t, hc)
	tr := func(name string) float64 { return m[name+`{role="server"}`] }
	if tr("wire_conns_total") < 1 || tr("wire_frames_in_total") < 5 || tr("wire_frames_out_total") < 5 ||
		tr("wire_bytes_in_total") == 0 || tr("wire_bytes_out_total") == 0 {
		t.Fatalf("transport counters conns=%v frames in=%v out=%v bytes in=%v out=%v",
			tr("wire_conns_total"), tr("wire_frames_in_total"), tr("wire_frames_out_total"),
			tr("wire_bytes_in_total"), tr("wire_bytes_out_total"))
	}
	if tr("wire_conns_open") < 1 {
		t.Fatalf("wire_conns_open = %v with a live client", tr("wire_conns_open"))
	}
	if b, q, mx := tr("wire_coalesced_batches_total"), tr("wire_coalesced_queries_total"), tr("wire_coalesced_max"); b != 1 || q != 3 || mx != 3 {
		t.Fatalf("batch-frame shape batches=%v queries=%v max=%v after one 3-query batch", b, q, mx)
	}
	if got := m["flowd_write_errors_total"]; got != 0 {
		t.Fatalf("flowd_write_errors_total = %v on a healthy run", got)
	}
}

// TestWriteJSONCountsEncodeErrors: a response body that fails midway
// through streaming (client hangup) must land in
// flowd_write_errors_total instead of vanishing.
func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	s := NewServerWith(store.New(store.Config{}), ServerOptions{})
	writeErrors := func() float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
		series, err := obs.ParseExposition(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("/metricsz does not parse: %v", err)
		}
		return series["flowd_write_errors_total"]
	}
	s.writeJSON(failingWriter{}, http.StatusOK, map[string]string{"k": "v"})
	if got := writeErrors(); got != 1 {
		t.Fatalf("flowd_write_errors_total = %v after failed encode, want 1", got)
	}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]string{"k": "v"})
	if got := writeErrors(); got != 1 {
		t.Fatalf("flowd_write_errors_total = %v after healthy encode, want 1", got)
	}
	if !strings.Contains(rec.Body.String(), `"k":"v"`) {
		t.Fatalf("healthy write body %q", rec.Body.String())
	}
}

type failingWriter struct{}

func (failingWriter) Header() http.Header       { return http.Header{} }
func (failingWriter) WriteHeader(int)           {}
func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client hung up") }
