// Command flowd serves the paper's query families over many graphs from
// one process: an HTTP/JSON daemon over the prepared-substrate store
// (internal/store + internal/flowd). Graphs are registered as generator
// specs; substrates (BDD + distance labelings) build lazily on first
// query, deduplicate across concurrent requests, and are evicted
// least-recently-used when the artifact budget is exceeded.
//
// Usage:
//
//	flowd -addr :8373 -budget-mb 256          # serve until interrupted
//	flowd -listen-wire :8374                  # also serve the binary wire transport (TCP)
//	flowd -listen-uds /run/flowd.sock         # also serve the wire transport on a Unix socket
//	flowd -demo 8 ...                         # preregister demo grids demo0..demoN-1
//	flowd -snapshot-dir /var/lib/flowd        # disk tier: spill on evict, restore on miss/boot
//	flowd -selfcheck                          # end-to-end smoke: serve, query, snapshot, restart, exit
//
// The wire listeners serve the same daemon over internal/wire's framed
// binary protocol — persistent connections, pipelined request-id
// multiplexing, write coalescing — for the high-rate query path; HTTP
// remains the control/compat plane. Answers are identical on both
// planes (flowd.WireClient is the matching Go client).
//
// With -snapshot-dir, evicted bundles are demoted to disk snapshots
// instead of discarded, cache misses restore from disk at decode speed
// before falling back to a rebuild, registered specs warm-restore at
// boot, and POST /v1/snapshot persists the resident working set on
// demand (e.g. before a planned restart).
//
// Endpoints: POST /v1/graphs, POST /v1/query,
// POST /v1/batch, POST /v1/snapshot, GET /statsz, GET /healthz,
// GET /metricsz (Prometheus text), GET /tracez (recent + slow spans),
// GET /versionz — see internal/flowd for the protocol.
//
// Observability flags: -log-level sets the structured-log threshold
// (debug logs every request), -slow-query-ms sets the slow-query log
// threshold, and -debug-addr serves net/http/pprof on a side listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr side listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

func main() {
	addr := flag.String("addr", ":8373", "HTTP listen address")
	wireAddr := flag.String("listen-wire", "", "binary wire-transport TCP listen address ('' = disabled)")
	wireUDS := flag.String("listen-uds", "", "binary wire-transport Unix-domain-socket path ('' = disabled)")
	budgetMB := flag.Int64("budget-mb", 256, "artifact memory budget in MiB (0 = unlimited)")
	maxGraphs := flag.Int("max-graphs", store.DefaultMaxGraphs, "cap on registered graphs (graphs are not evictable; < 0 = unlimited)")
	demo := flag.Int("demo", 0, "preregister this many demo grid graphs (demo0..demoN-1)")
	snapDir := flag.String("snapshot-dir", "", "disk snapshot tier: evicted bundles spill here, misses and boot restore from here ('' = disabled)")
	selfcheck := flag.Bool("selfcheck", false, "serve on loopback listeners, run the single-node end-to-end check (every family, batch, wire parity, telemetry, snapshot → restart → query), exit")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-drain budget on SIGTERM/SIGINT: finish in-flight requests, then flush resident bundles to the disk tier")
	logLevel := flag.String("log-level", "warn", "structured-log threshold: debug|info|warn|error (debug logs every request)")
	slowMS := flag.Int("slow-query-ms", 250, "requests at least this slow land in the slow-query log and /tracez")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address ('' = disabled)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "flowd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	opts := flowd.ServerOptions{
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowd:", err)
			os.Exit(2)
		}
		// net/http/pprof registers on DefaultServeMux; the main plane uses
		// its own mux, so the profiler is reachable only on this listener.
		go http.Serve(dln, nil)
		fmt.Printf("flowd: debug server (pprof) on %s\n", dln.Addr())
	}

	cfg := store.Config{MaxBytes: *budgetMB << 20, MaxGraphs: *maxGraphs, SpillDir: *snapDir}

	if *selfcheck {
		if cfg.SpillDir == "" {
			dir, err := os.MkdirTemp("", "flowd-selfcheck-snap")
			if err != nil {
				fmt.Fprintln(os.Stderr, "flowd selfcheck:", err)
				os.Exit(2)
			}
			defer os.RemoveAll(dir)
			cfg.SpillDir = dir
		}
		if err := runSelfcheck(cfg, *demo, opts); err != nil {
			fmt.Fprintln(os.Stderr, "flowd selfcheck:", err)
			os.Exit(1)
		}
		return
	}

	st := store.New(cfg)
	for i := 0; i < *demo; i++ {
		id := fmt.Sprintf("demo%d", i)
		if _, err := st.RegisterSpec(id, demoSpec(i)); err != nil {
			fmt.Fprintln(os.Stderr, "flowd:", err)
			os.Exit(2)
		}
	}
	// Warm restore on boot: every registered spec whose snapshot survives
	// on disk comes back resident before the first request lands.
	if st.SpillEnabled() {
		restored := 0
		for _, id := range st.IDs() {
			ok, err := st.TryRestore(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flowd:", err)
				os.Exit(2)
			}
			if ok {
				restored++
			}
		}
		if restored > 0 {
			fmt.Printf("flowd: warm-restored %d graph(s) from %s\n", restored, *snapDir)
		}
	}
	srv := flowd.NewServerWith(st, opts)

	hs := &http.Server{Addr: *addr, Handler: srv}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowd:", err)
		os.Exit(2)
	}
	fmt.Printf("flowd: serving on %s (budget %d MiB, %d graphs preregistered)\n",
		ln.Addr(), *budgetMB, *demo)

	// Wire plane: both listeners (TCP and UDS) feed one wire.Server
	// sharing the daemon's execution plane and transport counters.
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowd:", err)
			os.Exit(2)
		}
		go srv.Wire().Serve(wln)
		fmt.Printf("flowd: wire transport on %s\n", wln.Addr())
	}
	if *wireUDS != "" {
		os.Remove(*wireUDS) // stale socket from an unclean prior shutdown
		uln, err := net.Listen("unix", *wireUDS)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowd:", err)
			os.Exit(2)
		}
		go srv.Wire().Serve(uln)
		fmt.Printf("flowd: wire transport on unix:%s\n", *wireUDS)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "flowd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful drain, bounded by -drain-timeout: stop accepting on both
		// planes, let in-flight requests finish and their responses flush,
		// then persist the warm working set so the next boot restores at
		// decode speed instead of rebuilding.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		hs.Shutdown(drainCtx)
		if *wireAddr != "" || *wireUDS != "" {
			srv.Wire().Shutdown(drainCtx)
		}
		if st.SpillEnabled() {
			if n, err := st.SnapshotResident(); err != nil {
				fmt.Fprintln(os.Stderr, "flowd: drain snapshot:", err)
			} else if n > 0 {
				fmt.Printf("flowd: drained %d resident bundle(s) to %s\n", n, *snapDir)
			}
		}
		st.FlushSpills() // let in-flight eviction spills reach disk
		fmt.Println("flowd: shut down")
	}
}

// checkSpec is the selfcheck's graph: small enough for seconds-scale
// runs, large enough that every family has non-trivial structure.
var checkSpec = store.GraphSpec{
	Kind: "grid", Rows: 6, Cols: 6, Seed: 42, WLo: 1, WHi: 9, CLo: 1, CHi: 16,
}

// demoSpec varies grid sizes and seeds so a demo fleet exercises the
// eviction policy with mixed footprints.
func demoSpec(i int) store.GraphSpec {
	side := 8 + 2*(i%4)
	return store.GraphSpec{
		Kind: "grid", Rows: side, Cols: side, Seed: int64(i + 1),
		WLo: 1, WHi: 9, CLo: 1, CHi: 16,
	}
}

// serveLoopback starts srv on an ephemeral loopback port and returns a
// client plus the shutdown func.
func serveLoopback(srv *flowd.Server) (*flowd.Client, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return flowd.NewClient("http://" + ln.Addr().String()), func() { hs.Close() }, nil
}

// runSelfcheck is the end-to-end smoke path: serve on a loopback port,
// drive the daemon through its own client (register, one query per
// family, batch, statsz, maxflow's rounds on /metricsz), validate the
// telemetry plane (/metricsz exposition well-formedness and counter
// monotonicity across a query burst, a slow span with build-phase
// attribution on /tracez), then
// persist the warm working set with POST /v1/snapshot, restart onto a
// fresh store over the same snapshot directory, and verify the restored
// daemon answers every family bit-identically without rebuilding. It is
// the single-node daemon's check; the fleet's kill-owner → failover →
// adopt scenario lives in internal/fleet's tests.
func runSelfcheck(cfg store.Config, demo int, opts flowd.ServerOptions) error {
	// A 1ms slow threshold guarantees the cold-build query below lands in
	// the slow log; errors-only logging keeps the marker output stable.
	opts.SlowThreshold = time.Millisecond
	opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	newStore := func() (*store.Store, error) {
		st := store.New(cfg)
		for i := 0; i < demo; i++ {
			if _, err := st.RegisterSpec(fmt.Sprintf("demo%d", i), demoSpec(i)); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	st, err := newStore()
	if err != nil {
		return err
	}
	srv := flowd.NewServerWith(st, opts)
	c, shutdown, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	defer shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q", h.Status)
	}
	fmt.Println("flowd selfcheck: healthz ok")

	reg, err := c.RegisterWarm(ctx, "check", checkSpec)
	if err != nil {
		return err
	}
	fmt.Printf("registered grid n=%d m=%d faces=%d warmed=%v\n", reg.N, reg.M, reg.Faces, reg.Warmed)

	queries := []flowd.QueryRequest{
		{Graph: "check", Op: "dist", U: 0, V: reg.N - 1},
		{Graph: "check", Op: "dualdist", U: 0, V: reg.Faces - 1},
		{Graph: "check", Op: "maxflow", U: 0, V: reg.N - 1},
		{Graph: "check", Op: "minstcut", U: 0, V: reg.N - 1},
		{Graph: "check", Op: "girth"},
	}
	var flowVal, cutVal int64
	for _, q := range queries {
		resp, err := c.Query(ctx, q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Op, err)
		}
		fmt.Printf("%s=%d rounds=%d (build %d + query %d) hit=%v\n",
			q.Op, resp.Value, resp.Rounds.Total, resp.Rounds.Build, resp.Rounds.Query, resp.Hit)
		switch q.Op {
		case "maxflow":
			flowVal = resp.Value
		case "minstcut":
			cutVal = resp.Value
		}
	}
	if flowVal != cutVal {
		return fmt.Errorf("maxflow %d != minstcut %d", flowVal, cutVal)
	}

	// The same families through the batch plane: one request, one bundle
	// pin, per-query isolation (the bad entry fails alone).
	batch, err := c.QueryBatch(ctx, flowd.BatchRequest{Graph: "check", Queries: []flowd.BatchQuery{
		{Op: "maxflow", U: 0, V: reg.N - 1},
		{Op: "dist", U: 0, V: reg.N - 1},
		{Op: "dist", U: 0, V: reg.N + 999}, // out of range: its own error entry
		{Op: "girth"},
	}})
	if err != nil {
		return err
	}
	for i, r := range batch.Results {
		if r.Error != "" {
			fmt.Printf("batch[%d] %s error=%q\n", i, r.Op, r.Error)
			continue
		}
		fmt.Printf("batch[%d] %s=%d\n", i, r.Op, r.Value)
	}
	if batch.Results[0].Value != flowVal {
		return fmt.Errorf("batch maxflow %d != singleton %d", batch.Results[0].Value, flowVal)
	}
	if batch.Results[2].Error == "" {
		return fmt.Errorf("out-of-range batch entry did not error")
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("statsz: graphs=%d resident=%d bytes=%d hits=%d misses=%d builds=%d\n",
		stats.Store.Graphs, stats.Store.Resident, stats.Store.Bytes,
		stats.Store.Hits, stats.Store.Misses, stats.Store.Builds)
	// The per-family counts are /metricsz series: the maxflow singleton and
	// batch entry above must have reported rounds.
	scrape := func() (map[string]float64, error) {
		raw, err := c.Metricsz(ctx)
		if err != nil {
			return nil, err
		}
		series, err := obs.ParseExposition(raw)
		if err != nil {
			return nil, fmt.Errorf("metricsz: %w", err)
		}
		return series, nil
	}
	m0, err := scrape()
	if err != nil {
		return err
	}
	flowRounds := `flowd_query_rounds_total{family="maxflow"}`
	if m0[flowRounds] <= 0 {
		return fmt.Errorf("metricsz: %s = %g after maxflow queries, want > 0", flowRounds, m0[flowRounds])
	}
	fmt.Printf("metricsz: %s=%g queries=%g\n", flowRounds, m0[flowRounds], m0[`flowd_queries_total{family="maxflow"}`])

	// ---- snapshot → restart → query ----
	// Every family twice on the live daemon (the second pass is fully warm,
	// Build == 0 — the state a restored daemon must reproduce exactly).
	checks := flowd.FamilyChecks("check", reg.N, reg.Faces)
	want := make([]string, len(checks))
	for i, q := range checks {
		if _, err := c.Query(ctx, q); err != nil {
			return fmt.Errorf("%s: %w", q.Op, err)
		}
		resp, err := c.Query(ctx, q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Op, err)
		}
		want[i] = flowd.RestartKey(resp)
	}
	// ---- wire transport parity ----
	// The same warm checks over the binary transport, TCP and UDS: every
	// family's RestartKey (value, dist vector, cut edges, neg-cycle bit,
	// iterations, full rounds breakdown) must match the HTTP answer — the
	// wire plane is transport, not semantics.
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Wire().Serve(wln)
	udsDir, err := os.MkdirTemp("", "flowd-selfcheck-wire")
	if err != nil {
		return err
	}
	defer os.RemoveAll(udsDir)
	udsPath := udsDir + "/wire.sock"
	uln, err := net.Listen("unix", udsPath)
	if err != nil {
		return err
	}
	go srv.Wire().Serve(uln)
	for _, leg := range []struct{ network, target string }{
		{"tcp", wln.Addr().String()}, {"unix", udsPath},
	} {
		wc := flowd.NewWireClient(leg.network, leg.target, flowd.WireOptions{})
		if err := wc.Ping(ctx); err != nil {
			wc.Close()
			return fmt.Errorf("wire %s ping: %w", leg.network, err)
		}
		cw := c.WithWireTransport(wc)
		for i, q := range checks {
			resp, err := cw.Query(ctx, q)
			if err != nil {
				wc.Close()
				return fmt.Errorf("wire %s %s: %w", leg.network, q.Op, err)
			}
			if got := flowd.RestartKey(resp); got != want[i] {
				wc.Close()
				return fmt.Errorf("wire %s %s diverged from http:\n  got  %s\n  want %s",
					leg.network, q.Op, got, want[i])
			}
		}
		wc.Close()
	}
	ws := srv.Wire().Stats()
	fmt.Printf("wire: %d families bit-identical over tcp+unix (frames in=%d out=%d, bytes in=%d out=%d)\n",
		len(checks), ws.FramesIn, ws.FramesOut, ws.BytesIn, ws.BytesOut)
	srv.Wire().Close()

	// ---- telemetry plane ----
	// /metricsz must be well-formed Prometheus text (the strict parser
	// rejects any malformed line), counters must be monotone across a
	// query burst, both transports must have per-family latency series,
	// and a cold-build query must land in /tracez's slow log with its
	// build phase attributed.
	m1, err := scrape()
	if err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		if _, err := c.Query(ctx, queries[i%len(queries)]); err != nil {
			return fmt.Errorf("burst query %d: %w", i, err)
		}
	}
	// Cold build under a query (not register-warm): a 20x20 grid's
	// substrate build is far above the 1ms slow threshold, so this span
	// is guaranteed to land in the slow log with PhaseBuild > 0.
	coldSpec := store.GraphSpec{Kind: "grid", Rows: 20, Cols: 20, Seed: 7, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
	regCold, err := c.Register(ctx, "coldcheck", coldSpec)
	if err != nil {
		return err
	}
	if _, err := c.Query(ctx, flowd.QueryRequest{Graph: "coldcheck", Op: "dist", U: 0, V: regCold.N - 1}); err != nil {
		return err
	}
	m2, err := scrape()
	if err != nil {
		return err
	}
	monotone := 0
	for k, v1 := range m1 {
		if !strings.Contains(k, "_total") && !strings.Contains(k, "_count") {
			continue
		}
		v2, ok := m2[k]
		if !ok {
			return fmt.Errorf("metricsz: series %s disappeared between scrapes", k)
		}
		if v2 < v1 {
			return fmt.Errorf("metricsz: counter %s went backwards: %g -> %g", k, v1, v2)
		}
		monotone++
	}
	if monotone == 0 {
		return fmt.Errorf("metricsz: no counter series found")
	}
	distHTTP := `flowd_requests_total{family="dist",transport="http"}`
	if m2[distHTTP] <= m1[distHTTP] {
		return fmt.Errorf("metricsz: %s did not advance across the burst (%g -> %g)",
			distHTTP, m1[distHTTP], m2[distHTTP])
	}
	for _, tr := range []string{"http", "wire"} {
		k := fmt.Sprintf(`flowd_request_seconds_count{family="dist",transport=%q}`, tr)
		if m2[k] < 1 {
			return fmt.Errorf("metricsz: missing per-family latency series on %s transport (%s)", tr, k)
		}
	}
	traces, err := c.Tracez(ctx)
	if err != nil {
		return err
	}
	if len(traces.Slow) == 0 {
		return fmt.Errorf("tracez: slow log empty despite %.0fms threshold", traces.SlowThresholdMS)
	}
	slowBuild := false
	for _, sv := range traces.Slow {
		if sv.PhasesMS["build"] > 0 {
			slowBuild = true
			break
		}
	}
	if !slowBuild {
		return fmt.Errorf("tracez: no slow span carries a build phase (slow=%d)", len(traces.Slow))
	}
	fmt.Printf("telemetry: %d series parsed, %d counters monotone, %d slow span(s) traced\n",
		len(m2), monotone, len(traces.Slow))

	snap, err := c.Snapshot(ctx, "")
	if err != nil {
		return err
	}
	fmt.Printf("snapshot: wrote %d bundle(s)\n", snap.Written)
	if snap.Written < 1 {
		return fmt.Errorf("snapshot wrote nothing")
	}
	shutdown() // daemon gone; only the snapshot directory survives

	st2, err := newStore()
	if err != nil {
		return err
	}
	restored := 0
	for _, id := range st2.IDs() {
		ok, err := st2.TryRestore(id)
		if err != nil {
			return err
		}
		if ok {
			restored++
		}
	}
	// "check" was registered via the wire, not a boot spec: re-register and
	// warm-restore it the way a supervisor would replay its spec.
	if _, err := st2.RegisterSpec("check", checkSpec); err != nil {
		return err
	}
	ok, err := st2.TryRestore("check")
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("restart: no snapshot restored for %q", "check")
	}
	c2, shutdown2, err := serveLoopback(flowd.NewServer(st2))
	if err != nil {
		return err
	}
	defer shutdown2()
	for i, q := range checks {
		resp, err := c2.Query(ctx, q)
		if err != nil {
			return fmt.Errorf("restored %s: %w", q.Op, err)
		}
		if got := flowd.RestartKey(resp); got != want[i] {
			return fmt.Errorf("restored %s diverged:\n  got  %s\n  want %s", q.Op, got, want[i])
		}
		if !resp.Hit {
			return fmt.Errorf("restored %s was not served from the restored bundle", q.Op)
		}
	}
	stats2, err := c2.Stats(ctx)
	if err != nil {
		return err
	}
	if stats2.Store.SnapshotRestores < 1 {
		return fmt.Errorf("restart: snapshot_restores = %d, want >= 1", stats2.Store.SnapshotRestores)
	}
	if stats2.Store.Builds > 0 {
		return fmt.Errorf("restart: %d substrates rebuilt despite restore", stats2.Store.Builds)
	}
	fmt.Printf("restart: warm-restored %d+1 graph(s), all %d families bit-identical, 0 rebuilds\n",
		restored, len(checks))

	fmt.Println("flowd selfcheck: ok")
	return nil
}
