package flowd

// The daemon's face of the telemetry plane (internal/obs): per-request
// spans with phase attribution, end-to-end latency histograms per
// (transport, family), per-family query counts, errors and rounds,
// structured request logging, and the scrape endpoints — GET /metricsz
// (Prometheus text exposition, the one page every count is on), GET
// /tracez (recent + slow spans), GET /versionz (build identity), and
// the readiness body on GET /healthz.
//
// Hot-path discipline: every per-request record resolves through maps
// prebuilt at server construction (fmGrid, qmByOp below), so serving a
// request touches no registry lock — the marginal cost is a few atomic
// bumps, one tracer ring insert, and a level-gated slog call.

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"planarflow/internal/obs"
)

// ServerOptions tunes the daemon's telemetry; the zero value gives
// always-on defaults (warn-level logging to stderr, 128-span rings,
// 250ms slow threshold, a registry of the server's own).
type ServerOptions struct {
	// Logger receives structured request/error lines. nil means a
	// text handler on stderr at LevelWarn — errors and slow queries are
	// visible, per-request lines are not.
	Logger *slog.Logger
	// SlowThreshold flags requests at least this slow for the slow-query
	// log (0 = obs.DefaultSlowThreshold).
	SlowThreshold time.Duration
	// Registry is the metric registry this server counts into. nil means
	// a fresh obs.NewRegistry(), so no two servers in a process share a
	// series; a caller that also wants to read the registry directly (the
	// fleet front merges its replicas') passes its own. The store,
	// artifact, decode and wire layers and the Go runtime gauges record
	// process-wide on obs.Default() regardless; /metricsz renders the
	// server's registry merged with it.
	Registry *obs.Registry
}

// famMetrics is one (transport, family) cell of the prebuilt metric
// grid: the end-to-end latency histogram and request/error counters.
type famMetrics struct {
	lat  *obs.Histogram
	reqs *obs.Counter
	errs *obs.Counter
}

// famKey addresses one grid cell. A struct key (rather than a joined
// string) keeps the per-request lookup allocation-free.
type famKey struct {
	transport, family string
}

// decodeFamily is the pseudo-family requests that fail before their op
// is known are accounted under.
const decodeFamily = "_decode"

// batchFamily is the family of /v1/batch requests at the handler level
// (per-entry ops count under their own family in queryMetrics).
const batchFamily = "batch"

// queryMetrics is one op's executed-query counters: every query of the
// op counts once, singleton or batch entry, on either transport.
type queryMetrics struct {
	count, errs, rounds *obs.Counter
}

// record counts one executed query of the cell's op: its reported rounds
// and whether it errored. A nil cell (an op no decoder admits) is a no-op.
func (m *queryMetrics) record(rounds int64, errored bool) {
	if m == nil {
		return
	}
	m.count.Inc()
	m.rounds.Add(rounds)
	if errored {
		m.errs.Inc()
	}
}

// transports the daemon serves on.
var transports = []string{"http", "wire"}

// initObs builds the per-(transport, family) metric grid, the per-op
// query counters, the phase histograms, the tracer, and the daemon
// gauges, all on the server's own registry.
func (s *Server) initObs(opt ServerOptions) {
	s.log = opt.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	s.tracer = obs.NewTracer(obs.DefaultTraceRing, opt.SlowThreshold)

	s.reg = opt.Registry
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	r := s.reg
	families := append(append([]string{}, Ops...), batchFamily, decodeFamily)
	s.fmGrid = make(map[famKey]*famMetrics, len(transports)*len(families))
	for _, tr := range transports {
		for _, fam := range families {
			s.fmGrid[famKey{tr, fam}] = &famMetrics{
				lat: r.Histogram("flowd_request_seconds",
					"End-to-end request latency by transport and query family.",
					obs.L("transport", tr), obs.L("family", fam)),
				reqs: r.Counter("flowd_requests_total",
					"Requests served by transport and query family.",
					obs.L("transport", tr), obs.L("family", fam)),
				errs: r.Counter("flowd_errors_total",
					"Requests that failed, by transport and query family.",
					obs.L("transport", tr), obs.L("family", fam)),
			}
		}
	}
	s.qmByOp = make(map[string]*queryMetrics, len(Ops))
	for _, op := range Ops {
		s.qmByOp[op] = &queryMetrics{
			count: r.Counter("flowd_queries_total",
				"Queries executed by family, singleton or batch entry.", obs.L("family", op)),
			errs: r.Counter("flowd_query_errors_total",
				"Executed queries that returned an error, by family.", obs.L("family", op)),
			rounds: r.Counter("flowd_query_rounds_total",
				"CONGEST rounds (build + query) the family's queries reported.", obs.L("family", op)),
		}
	}
	s.writeErrs = r.Counter("flowd_write_errors_total",
		"Responses whose body write failed midway (client hung up while it streamed).")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		s.phaseHist[p] = r.Histogram("flowd_phase_seconds",
			"Per-request phase wall time (decode, acquire, build, exec, encode).",
			obs.L("phase", p.String()))
	}
	tr := s.tracer
	r.CounterFunc("trace_spans_dropped_total",
		"Finished spans overwritten by a tracer ring wrap.", tr.Dropped)

	// The store keeps one count per entry; these read it at scrape time,
	// so a page carries this server's store and no other.
	st := s.st
	r.CounterFunc("store_evictions_total",
		"Resident bundles evicted under the memory budget.",
		func() int64 { return st.Totals().Evictions })
	r.CounterFunc("store_spills_elided_total",
		"Evictions that wrote nothing because the spill file already held the bundle's substrates.",
		func() int64 { return st.Totals().SpillsElided })
	r.Gauge("flowd_graphs", "Registered graphs.", func() float64 {
		return float64(st.Totals().Graphs)
	})
	r.Gauge("flowd_resident_graphs", "Graphs with a resident artifact bundle.", func() float64 {
		return float64(st.Totals().Resident)
	})
	r.Gauge("flowd_store_bytes", "Accounted footprint of resident bundles.", func() float64 {
		return float64(st.Totals().Bytes)
	})
	// Uptime is the process's, so it lives on obs.Default() beside the
	// runtime gauges: a page merging several servers shows it once. Each
	// server re-registers it from its own start (the callback is replaced
	// in place); a process serves one daemon, or one fleet whose replicas
	// start together.
	start := s.start
	obs.Default().Gauge("flowd_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(start).Seconds()
	})
}

// beginSpan opens the span for one request and hands back the context
// the execution plane should run under. tc is the inbound trace
// context (X-Pf-Trace on HTTP, the frame trace block on the wire); an
// invalid tc self-roots a fresh trace so every span is stitchable. The
// returned context also carries the span's outbound propagation, so
// any downstream hop this request makes (peer snapshot fetch) joins
// the same trace one hop deeper.
func (s *Server) beginSpan(ctx context.Context, transport string, tc obs.TraceContext) (*obs.Span, context.Context) {
	sp := obs.NewSpan(s.reqSeq.Add(1), transport)
	if !tc.Valid() {
		tc = obs.NewTrace()
	}
	sp.SetTrace(tc)
	ctx = obs.ContextWithSpan(ctx, sp)
	return sp, obs.ContextWithTrace(ctx, sp.Propagate())
}

// httpTrace extracts the inbound trace context of an HTTP request.
func httpTrace(r *http.Request) obs.TraceContext {
	return obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
}

// beginWireSpan is beginSpan for the wire plane: the inbound trace
// context rode the frame's trace block, which the wire server already
// attached to ctx. The frame id doubles as the span id.
func (s *Server) beginWireSpan(ctx context.Context, id uint64) (*obs.Span, context.Context) {
	sp := obs.NewSpan(id, "wire")
	tc, _ := obs.TraceFromContext(ctx)
	if !tc.Valid() {
		tc = obs.NewTrace()
	}
	sp.SetTrace(tc)
	ctx = obs.ContextWithSpan(ctx, sp)
	return sp, obs.ContextWithTrace(ctx, sp.Propagate())
}

// finishRequest closes out one request: end-to-end histogram, request
// and error counters on the (transport, family) cell, phase histograms
// from the span's accumulators, tracer ring insert, and the structured
// log line (always for errors, always for slow requests, and for every
// request when the logger admits LevelDebug).
func (s *Server) finishRequest(sp *obs.Span, errMsg string) {
	total := time.Since(sp.Start)
	if m := s.fmGrid[famKey{sp.Transport, sp.Family}]; m != nil {
		m.lat.Observe(total)
		m.reqs.Inc()
		if errMsg != "" {
			m.errs.Inc()
		}
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if ns := sp.PhaseNS(p); ns > 0 {
			s.phaseHist[p].ObserveNS(ns)
		}
	}
	slow := s.tracer.Finish(sp, total, errMsg)

	switch {
	case errMsg != "":
		s.log.Warn("request failed",
			"id", sp.ID, "trace_id", sp.TraceID(), "transport", sp.Transport,
			"family", sp.Family, "graph", sp.Graph, "ms", durMS(total), "err", errMsg)
	case slow:
		s.log.Warn("slow request",
			"id", sp.ID, "trace_id", sp.TraceID(), "transport", sp.Transport,
			"family", sp.Family, "graph", sp.Graph, "ms", durMS(total),
			"build_ms", phaseMS(sp, obs.PhaseBuild), "exec_ms", phaseMS(sp, obs.PhaseExec))
	case s.log.Enabled(context.Background(), slog.LevelDebug):
		s.log.Debug("request",
			"id", sp.ID, "trace_id", sp.TraceID(), "transport", sp.Transport,
			"family", sp.Family, "graph", sp.Graph, "ms", durMS(total))
	}
}

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func phaseMS(sp *obs.Span, p obs.Phase) float64 {
	return float64(sp.PhaseNS(p)) / 1e6
}

// HealthResponse is the GET /healthz readiness body: liveness plus the
// few store figures an orchestrator gates on, read off the store's own
// totals. Every count the daemon keeps is on /metricsz.
type HealthResponse struct {
	Status string `json:"status"`
	// Graphs / Resident: registered graphs and how many have a resident
	// artifact bundle right now.
	Graphs   int `json:"graphs"`
	Resident int `json:"resident"`
	// WarmRestores counts disk-tier snapshot restores since boot — nonzero
	// right after a warm restart means the working set survived.
	WarmRestores int64   `json:"warm_restores"`
	UptimeMS     float64 `json:"uptime_ms"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.st.Totals()
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok", Graphs: snap.Graphs, Resident: snap.Resident,
		WarmRestores: snap.SnapshotRestores,
		UptimeMS:     durMS(time.Since(s.start)),
	})
}

// handleMetricsz serves the server's registry merged with the
// process-wide one: the layers below the daemon (store, artifact, decode,
// wire) and the Go runtime gauges record on obs.Default(), every count the
// server keeps on its own registry.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteMergedPrometheus(w, s.reg, obs.Default()); err != nil {
		s.writeErrs.Inc()
		s.log.Warn("metricsz write failed", "err", err.Error())
	}
}

// TraceResponse is the GET /tracez payload: recent spans newest-first,
// the slow-query log, and the threshold that feeds it.
type TraceResponse struct {
	SlowThresholdMS float64        `json:"slow_threshold_ms"`
	SlowTotal       int64          `json:"slow_total"`
	Recent          []obs.SpanView `json:"recent"`
	Slow            []obs.SpanView `json:"slow"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	f, err := SpanFilterFromQuery(r.URL.Query())
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, TraceResponse{
		SlowThresholdMS: durMS(s.tracer.Threshold()),
		SlowTotal:       s.tracer.SlowCount(),
		Recent:          obs.FilterSpans(s.tracer.Recent(), f),
		Slow:            obs.FilterSpans(s.tracer.Slow(), f),
	})
}

// SpanFilterFromQuery parses the ?family= / ?graph= / ?min_ms= span
// filters shared by /tracez and the fleet front's /fleettracez. min_ms
// must be a finite number >= 0: a NaN or +Inf threshold matches no span,
// and a 200 with empty rings reads as "nothing slow".
func SpanFilterFromQuery(q url.Values) (obs.SpanFilter, error) {
	f := obs.SpanFilter{Family: q.Get("family"), Graph: q.Get("graph")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 {
			return f, fmt.Errorf("flowd: bad min_ms %q", v)
		}
		f.MinMS = ms
	}
	return f, nil
}

// Tracer returns the server's span tracer — the fleet front drains it
// for cross-replica stitching.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// VersionResponse is the GET /versionz payload: which build this is and
// what it runs on. What moves while it runs — goroutines, GC cycles, heap,
// uptime — is on /metricsz (go_goroutines, go_gc_cycles_total,
// go_memstats_heap_alloc_bytes, flowd_uptime_seconds).
type VersionResponse struct {
	GoVersion  string            `json:"go_version"`
	Module     string            `json:"module,omitempty"`
	Revision   string            `json:"revision,omitempty"`
	BuildTime  string            `json:"build_time,omitempty"`
	Settings   map[string]string `json:"settings,omitempty"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
}

func (s *Server) handleVersionz(w http.ResponseWriter, r *http.Request) {
	resp := VersionResponse{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				resp.Revision = kv.Value
			case "vcs.time":
				resp.BuildTime = kv.Value
			case "GOARCH", "GOOS", "vcs.modified":
				if resp.Settings == nil {
					resp.Settings = map[string]string{}
				}
				resp.Settings[kv.Key] = kv.Value
			}
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
