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
	"syscall"
	"time"

	"planarflow/internal/flowd"
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

// demoSpec varies grid sizes and seeds so a demo fleet exercises the
// eviction policy with mixed footprints.
func demoSpec(i int) store.GraphSpec {
	side := 8 + 2*(i%4)
	return store.GraphSpec{
		Kind: "grid", Rows: side, Cols: side, Seed: int64(i + 1),
		WLo: 1, WHi: 9, CLo: 1, CHi: 16,
	}
}
