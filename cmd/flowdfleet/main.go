// Command flowdfleet runs a sharded flowd fleet in one process: N
// replicas (each its own store, daemon, metric registry, and loopback
// listeners) behind the consistent-hash fleet client, fronted by one
// HTTP plane that routes graph traffic by ring placement and aggregates
// fleet-wide telemetry.
//
// Usage:
//
//	flowdfleet -addr :8473 -replicas 3 -budget-mb 256
//	flowdfleet -snapshot-dir /var/lib/flowdfleet    # per-replica disk tiers under <dir>/<name>
//	flowdfleet -wire                                # replicas also serve the binary transport
//	flowdfleet -sync-interval 5s                    # periodic standby replication
//
// Front endpoints:
//
//	POST /v1/graphs     register a graph (routed to its ring owner, warm)
//	POST /v1/query      one query, routed by graph id with failover
//	POST /v1/batch      one batch, routed by graph id with failover
//	GET  /fleetz        membership, aliveness, ring epoch, failover counters, ops journal
//	GET  /fleettracez   end-to-end traces stitched across every replica's span
//	                    ring and the fleet client's own (?family= ?graph=
//	                    ?min_ms= filter spans; ?slow=1 keeps traces over
//	                    -fleet-slow-ms)
//	GET  /statsz        fleet-aggregated store stats + the per-replica breakdown
//	GET  /metricsz      merged Prometheus exposition across every replica
//	GET  /healthz       fleet liveness (alive replicas / total)
//
// Replication: every -sync-interval the fleet client re-runs standby
// sync — each graph's spec registered on its ring successors and the
// owner's built bundle shipped as its snapshot bytes — so a replica
// death is served by a standby holding a peer-restored bundle (zero
// rebuilds), and the ring epoch advances for observers on /fleetz.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

func main() {
	addr := flag.String("addr", ":8473", "fleet front HTTP listen address")
	replicas := flag.Int("replicas", 3, "number of in-process flowd replicas")
	budgetMB := flag.Int64("budget-mb", 256, "per-replica artifact memory budget in MiB (0 = unlimited)")
	snapDir := flag.String("snapshot-dir", "", "disk-tier root: replica r spills under <dir>/<r> ('' = disabled)")
	wire := flag.Bool("wire", false, "replicas also serve the binary wire transport; fleet routing uses it for queries")
	syncInterval := flag.Duration("sync-interval", 5*time.Second, "period of standby replication (0 = disabled)")
	replication := flag.Int("replication", 1, "standby replicas per graph beyond its owner")
	logLevel := flag.String("log-level", "warn", "structured-log threshold: debug|info|warn|error")
	fleetSlowMS := flag.Float64("fleet-slow-ms", 250, "stitched-trace slow threshold for /fleettracez?slow=1")
	flag.Parse()

	if *replicas < 1 {
		fmt.Fprintln(os.Stderr, "flowdfleet: -replicas must be >= 1")
		os.Exit(2)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "flowdfleet: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	reps := make([]*fleet.Replica, *replicas)
	members := make([]fleet.Member, *replicas)
	for i := range reps {
		r, err := fleet.StartReplica(fleet.ReplicaConfig{
			Name:   fmt.Sprintf("r%d", i),
			Store:  store.Config{MaxBytes: *budgetMB << 20, SpillDir: *snapDir},
			Wire:   *wire,
			Logger: logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowdfleet:", err)
			os.Exit(2)
		}
		reps[i] = r
		members[i] = r.Member()
		fmt.Printf("flowdfleet: replica %s on %s\n", r.Name, r.Member().HTTP)
	}
	fc, err := fleet.New(members, fleet.Options{
		Wire:        *wire,
		Replication: *replication,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowdfleet:", err)
		os.Exit(2)
	}
	defer fc.Close()

	front := &front{fc: fc, reps: reps, start: time.Now(), slowMS: *fleetSlowMS}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowdfleet:", err)
		os.Exit(2)
	}
	hs := &http.Server{Handler: front.mux()}
	fmt.Printf("flowdfleet: %d replicas behind %s (replication %d)\n", *replicas, ln.Addr(), *replication)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *syncInterval > 0 {
		go func() {
			t := time.NewTicker(*syncInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					sctx, cancel := context.WithTimeout(ctx, *syncInterval)
					if _, err := fc.SyncStandby(sctx); err != nil {
						logger.Warn("standby sync", "err", err.Error())
					}
					cancel()
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "flowdfleet:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(drainCtx)
		for _, r := range reps {
			fc.RecordDrain(r.Name)
			if err := r.Drain(drainCtx); err != nil {
				logger.Warn("replica drain", "replica", r.Name, "err", err.Error())
			}
		}
		fmt.Println("flowdfleet: shut down")
	}
}

// front is the fleet's aggregating HTTP plane.
type front struct {
	fc     *fleet.Client
	reps   []*fleet.Replica
	start  time.Time
	slowMS float64
}

func (f *front) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", f.handleRegister)
	mux.HandleFunc("POST /v1/query", f.handleQuery)
	mux.HandleFunc("POST /v1/batch", f.handleBatch)
	mux.HandleFunc("GET /fleetz", f.handleFleetz)
	mux.HandleFunc("GET /fleettracez", f.handleFleetTracez)
	mux.HandleFunc("GET /statsz", f.handleStatsz)
	mux.HandleFunc("GET /metricsz", f.handleMetricsz)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr answers a failed request in the status class the replica
// chose, on either plane (HTTP or wire); a failure no replica classified
// is the front's own: 503 with no replica left, 502 otherwise.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	var ae *flowd.APIError
	var se *flowd.StatusError
	switch {
	case errors.As(err, &ae):
		status = ae.Status
	case errors.As(err, &se):
		status = flowd.HTTPStatusOf(se.Status)
	case errors.Is(err, fleet.ErrNoReplicas):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decode reads r's body under flowd's 1 MiB cap and decodes it with the
// replica's own decoder (flowd.DecodeQuery, DecodeBatch, DecodeRegister),
// so a body a replica would refuse is refused here, with the replica's
// status and message, before any routing.
func decode[T any](w http.ResponseWriter, r *http.Request, dec func([]byte) (*T, error)) (*T, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "flowd: reading body: " + err.Error()})
		return nil, false
	}
	v, err := dec(data)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return nil, false
	}
	return v, true
}

// traceCtx continues an inbound X-Pf-Trace at the fleet ingress: the
// fleet client's root span joins the caller's trace instead of minting
// a new one. Absent or malformed headers leave the context untouched.
func traceCtx(r *http.Request) context.Context {
	ctx := r.Context()
	if tc := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); tc.Valid() {
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	return ctx
}

func (f *front) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r, flowd.DecodeRegister)
	if !ok {
		return
	}
	if err := f.fc.Register(traceCtx(r), req.ID, req.Spec); err != nil {
		writeErr(w, err)
		return
	}
	owner, _ := f.fc.Owner(req.ID)
	writeJSON(w, http.StatusOK, map[string]string{"id": req.ID, "owner": owner})
}

func (f *front) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r, flowd.DecodeQuery)
	if !ok {
		return
	}
	resp, err := f.fc.Query(traceCtx(r), *req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (f *front) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r, flowd.DecodeBatch)
	if !ok {
		return
	}
	resp, err := f.fc.QueryBatch(traceCtx(r), *req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// fleetzResponse is the fleet-topology view: who is in the ring, who is
// alive, which epoch routing is at, the client's failure counters, and
// the ops event journal cross-linking membership churn to the traces
// that caused it.
type fleetzResponse struct {
	Members []memberStatus `json:"members"`
	Epoch   uint64         `json:"epoch"`
	Alive   int            `json:"alive"`
	Stats   fleet.Stats    `json:"stats"`
	Journal []obs.Event    `json:"journal,omitempty"`
}

type memberStatus struct {
	Name  string `json:"name"`
	HTTP  string `json:"http"`
	Alive bool   `json:"alive"`
}

func (f *front) handleFleetz(w http.ResponseWriter, r *http.Request) {
	ring := f.fc.Ring()
	resp := fleetzResponse{
		Epoch: ring.Epoch(), Alive: ring.AliveCount(), Stats: f.fc.Stats(),
		Journal: f.fc.Journal().Recent(),
	}
	for _, r := range f.reps {
		resp.Members = append(resp.Members, memberStatus{
			Name: r.Name, HTTP: r.Member().HTTP, Alive: ring.Alive(r.Name),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// fleetTraceResponse is the GET /fleettracez payload: traces stitched
// from every replica's span rings plus the fleet client's own,
// newest-first.
type fleetTraceResponse struct {
	SlowThresholdMS float64         `json:"slow_threshold_ms"`
	Traces          []obs.TraceView `json:"traces"`
}

func (f *front) handleFleetTracez(w http.ResponseWriter, r *http.Request) {
	filter, err := flowd.SpanFilterFromQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	rings := [][]obs.SpanView{
		obs.FilterSpans(f.fc.Tracer().Recent(), filter),
		obs.FilterSpans(f.fc.Tracer().Slow(), filter),
	}
	for _, rep := range f.reps {
		rings = append(rings,
			obs.FilterSpans(rep.Srv.Tracer().Recent(), filter),
			obs.FilterSpans(rep.Srv.Tracer().Slow(), filter))
	}
	traces := obs.Stitch(rings...)
	if r.URL.Query().Get("slow") == "1" {
		kept := traces[:0]
		for _, tv := range traces {
			if tv.TotalMS >= f.slowMS {
				kept = append(kept, tv)
			}
		}
		traces = kept
	}
	writeJSON(w, http.StatusOK, fleetTraceResponse{SlowThresholdMS: f.slowMS, Traces: traces})
}

// fleetStatsResponse is the aggregated /statsz: summed store counters
// and the per-replica breakdown. Latency and every other count the
// replicas keep are on the merged /metricsz.
type fleetStatsResponse struct {
	Store      store.Stats            `json:"store"`
	HitRate    float64                `json:"hit_rate"`
	UptimeMS   float64                `json:"uptime_ms"`
	PerReplica map[string]store.Stats `json:"per_replica"`
}

func (f *front) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := fleetStatsResponse{
		UptimeMS:   float64(time.Since(f.start).Microseconds()) / 1000,
		PerReplica: make(map[string]store.Stats, len(f.reps)),
	}
	for _, rep := range f.reps {
		st := rep.Store.Totals() // the fleet view aggregates; per-graph rows stay on the replica's own /statsz
		resp.PerReplica[rep.Name] = st
		resp.Store.Graphs += st.Graphs
		resp.Store.Resident += st.Resident
		resp.Store.Bytes += st.Bytes
		resp.Store.MaxBytes += st.MaxBytes
		resp.Store.Hits += st.Hits
		resp.Store.Misses += st.Misses
		resp.Store.Builds += st.Builds
		resp.Store.Evictions += st.Evictions
		resp.Store.BuildRounds += st.BuildRounds
		resp.Store.SnapshotRestores += st.SnapshotRestores
		resp.Store.SnapshotWrites += st.SnapshotWrites
		resp.Store.SpillsElided += st.SpillsElided
		resp.Store.SnapshotErrors += st.SnapshotErrors
		resp.Store.PeerRestores += st.PeerRestores
	}
	resp.HitRate = resp.Store.HitRate()
	writeJSON(w, http.StatusOK, resp)
}

// handleMetricsz merges every replica's registry with the process-wide
// one (once): the store, artifact, decode and wire layers and the Go
// runtime gauges record there, not per replica.
func (f *front) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	regs := make([]*obs.Registry, 0, len(f.reps)+1)
	for _, rep := range f.reps {
		regs = append(regs, rep.Reg)
	}
	regs = append(regs, obs.Default())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteMergedPrometheus(w, regs...)
}

func (f *front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ring := f.fc.Ring()
	alive := ring.AliveCount()
	status := "ok"
	code := http.StatusOK
	if alive == 0 {
		status, code = "down", http.StatusServiceUnavailable
	} else if alive < len(f.reps) {
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status": status, "alive": alive, "replicas": len(f.reps), "epoch": ring.Epoch(),
	})
}
