// Package flowd is the query daemon over the multi-graph store: an
// HTTP/JSON surface that registers (generates) graphs and serves the
// paper's query families — distances, dual SSSP, max flow / min cut,
// girth — from the prepared-substrate cache, with per-request
// cancellation plumbed down to substrate-build checkpoints. Every count
// the daemon keeps is a series on GET /metricsz; GET /statsz is the
// store's state (its accounting and per-graph rows) and nothing else.
//
// Endpoints:
//
//	POST /v1/graphs   {"id": ..., "spec": {...}}   register a generated graph
//	                  ?warm=1                      eagerly build the serving substrates
//	POST /v1/query    QueryRequest                 run one query
//	POST /v1/batch    BatchRequest                 run a batch under one bundle pin
//	POST /v1/snapshot SnapshotRequest              persist resident bundles to the disk tier
//	GET  /v1/snapshot/{graph}                      a resident bundle's PFSNAP bytes (peer restore)
//	POST /v1/restore  RestoreRequest               run the restore ladder for one graph
//	GET  /statsz                                   the store's state: store.Stats + hit rate
//	GET  /metricsz                                 every counter, gauge and histogram (Prometheus text)
//	GET  /tracez                                   recent + slow request spans
//	GET  /versionz                                 build identity
//	GET  /healthz                                  liveness
//
// Requests decode straight onto the library's query plane: a QueryRequest
// is a planarflow.Query plus a graph id, and execution is one store.Do
// (store.DoBatch for /v1/batch) — there is no per-family dispatch in the
// daemon. The wire protocol is strict: unknown fields are rejected, bodies
// are size-capped, and every error is a JSON {"error": ...} with a
// meaningful status code. Client (client.go) is the matching Go client.
package flowd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"planarflow"
	"planarflow/internal/obs"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

// maxBodyBytes caps request bodies: specs and queries are tiny; anything
// bigger is abuse.
const maxBodyBytes = 1 << 20

// Ops understood by the query endpoints — the wire names of
// planarflow.QueryKinds — and the argument fields each uses. U/V double
// as the face pair of dualdist.
//
//	dist, dirdist   U, V  (vertices)
//	dualdist        U, V  (faces)
//	dualsssp        Source (face)
//	maxflow,        U, V  (s, t)
//	minstcut        U, V
//	stflow, stcut   U, V, Eps (st-planar approximations; Eps=0 exact)
//	girth, dirgirth, globalmincut   (no arguments)
var Ops = func() []string {
	ops := make([]string, len(planarflow.QueryKinds))
	for i, k := range planarflow.QueryKinds {
		ops[i] = string(k)
	}
	return ops
}()

// QueryRequest is one query against a registered graph: a
// planarflow.Query's wire shape plus the graph id.
type QueryRequest struct {
	Graph  string  `json:"graph"`
	Op     string  `json:"op"`
	U      int     `json:"u,omitempty"`
	V      int     `json:"v,omitempty"`
	Source int     `json:"source,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
}

// Query maps the request onto the library's first-class query value — the
// op string is the QueryKind, the argument fields carry over verbatim.
// The wire Rounds carries only the totals, so the per-phase breakdown is
// not requested.
func (r *QueryRequest) Query() planarflow.Query {
	return planarflow.Query{
		Kind: planarflow.QueryKind(r.Op),
		U:    r.U, V: r.V, Source: r.Source, Eps: r.Eps,
		NoPhases: true,
	}
}

// Rounds is the wire-compact round report: the simulated CONGEST cost of
// the query, split into one-time substrate construction (nonzero only for
// the request that triggered a build) and per-query work. The point-decode
// ops (dist, dirdist, dualdist) always report zero Query rounds — they
// decode locally — so a nonzero report on them is pure Build cost of the
// triggering request, the same split every other op reports.
type Rounds struct {
	Total int64 `json:"total"`
	Build int64 `json:"build"`
	Query int64 `json:"query"`
}

// QueryResponse is the result of one query. Value is the scalar answer
// (distance, flow value, cut value, girth weight; planarflow.Inf means
// unreachable/acyclic). Hit reports whether the graph's bundle was
// resident when the request arrived.
type QueryResponse struct {
	Graph      string  `json:"graph"`
	Op         string  `json:"op"`
	Value      int64   `json:"value"`
	Dist       []int64 `json:"dist,omitempty"`      // dualsssp distances per face
	CutEdges   []int   `json:"cut_edges,omitempty"` // cut-valued ops
	NegCycle   bool    `json:"neg_cycle,omitempty"`
	Iterations int     `json:"iterations,omitempty"` // maxflow: feasibility probes the λ search ran
	Hit        bool    `json:"hit"`
	Rounds     Rounds  `json:"rounds"`
	WallMS     float64 `json:"wall_ms"`
}

// RegisterRequest registers a generated graph under an id.
type RegisterRequest struct {
	ID   string          `json:"id"`
	Spec store.GraphSpec `json:"spec"`
}

// RegisterResponse echoes the registered graph's shape. Warmed reports
// that the ?warm=1 prefetch built the serving substrates before the
// response was written.
type RegisterResponse struct {
	ID     string `json:"id"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Faces  int    `json:"faces"`
	Warmed bool   `json:"warmed,omitempty"`
}

// SnapshotRequest asks the daemon to persist prepared substrates to its
// snapshot directory: one graph when Graph is set, every resident bundle
// otherwise. Requires the daemon to run with -snapshot-dir.
type SnapshotRequest struct {
	Graph string `json:"graph,omitempty"`
}

// SnapshotResponse reports how many snapshots the request wrote.
type SnapshotResponse struct {
	Written int `json:"written"`
}

// StatsResponse is the /statsz payload: the store's state. Counts the
// daemon keeps itself (per-family queries, write errors, transport,
// latency) are on /metricsz.
type StatsResponse struct {
	Store   store.Stats `json:"store"`
	HitRate float64     `json:"hit_rate"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// check is a query request's one rule, on every plane: the graph id
// passes store.CheckID and the query passes planarflow.Query.Validate.
// DecodeQuery and the binary decoder both call it, so what one plane
// refuses the other refuses, as the library and the store do.
func (r *QueryRequest) check() error {
	if err := store.CheckID(r.Graph); err != nil {
		return fmt.Errorf("flowd: bad query: %w", err)
	}
	if err := r.Query().Validate(); err != nil {
		return fmt.Errorf("flowd: bad query: %w", err)
	}
	return nil
}

// DecodeQuery parses and checks one query request. It is strict —
// unknown fields and trailing garbage are rejected, then check applies —
// and total: no input may panic (the fuzz test holds it to that). Range
// checks that need the graph (vertex < N, face < NumFaces) happen at
// query time.
func DecodeQuery(data []byte) (*QueryRequest, error) {
	req, err := decodeStrict[QueryRequest](data, "query")
	if err != nil {
		return nil, err
	}
	if err := req.check(); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeRegister parses one register request: the strict decode plus
// store.CheckID. The spec is the store's to refuse when it builds it.
func DecodeRegister(data []byte) (*RegisterRequest, error) {
	req, err := decodeStrict[RegisterRequest](data, "register")
	if err != nil {
		return nil, err
	}
	if err := store.CheckID(req.ID); err != nil {
		return nil, fmt.Errorf("flowd: bad register: %w", err)
	}
	return req, nil
}

// Server is the HTTP handler over one store, and (via Wire) the handler
// behind the binary wire transport — both planes execute through the
// same store.Do/DoBatch calls and the same telemetry plane (obs.go:
// spans, latency histograms, per-family counters, /metricsz).
type Server struct {
	st    *store.Store
	mux   *http.ServeMux
	start time.Time

	wireMu  sync.Mutex
	wireSrv *wire.Server

	// peerHC is the keep-alive pooled HTTP client the restore ladder
	// fetches peer snapshots with (peer.go).
	peerHC *http.Client

	// Telemetry plane (initObs): structured logger, span tracer, request
	// id sequence for the HTTP plane (wire requests key by frame id), the
	// prebuilt (transport, family) metric grid, one query-counter cell per
	// op in Ops (read-only after construction), the half-written-response
	// counter and per-phase histograms.
	log       *slog.Logger
	tracer    *obs.Tracer
	reg       *obs.Registry
	reqSeq    atomic.Uint64
	fmGrid    map[famKey]*famMetrics
	qmByOp    map[string]*queryMetrics
	writeErrs *obs.Counter
	phaseHist [obs.NumPhases]*obs.Histogram
}

// NewServerWith wraps st in the daemon's HTTP surface; the zero
// ServerOptions gives the default telemetry.
func NewServerWith(st *store.Store, opt ServerOptions) *Server {
	s := &Server{st: st, mux: http.NewServeMux(), start: time.Now(), peerHC: &http.Client{}}
	s.initObs(opt)
	s.mux.HandleFunc("POST /v1/graphs", s.handleRegister)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/snapshot/{graph}", s.handleFetchSnapshot)
	s.mux.HandleFunc("POST /v1/restore", s.handleRestore)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	s.mux.HandleFunc("GET /versionz", s.handleVersionz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes one JSON response. An Encode failure here means the
// response left half-written (the status line is already gone, so the
// client sees a truncated body, not an error) — it cannot be repaired,
// but it must not be silent either: the daemon counts it as
// flowd_write_errors_total.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.writeErrs.Inc()
		s.log.Warn("response write failed", "status", status, "err", err.Error())
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// statusOf maps the library's sentinel errors to HTTP statuses: unknown
// graphs are 404, argument and precondition violations 400, canceled or
// timed-out requests 499/504, everything else 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, store.ErrUnknownGraph), errors.Is(err, ErrNoSnapshot):
		return http.StatusNotFound
	case errors.Is(err, store.ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, store.ErrGraphLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, store.ErrSpillDisabled), errors.Is(err, store.ErrBadID),
		errors.Is(err, store.ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, planarflow.ErrVertexRange),
		errors.Is(err, planarflow.ErrFaceRange),
		errors.Is(err, planarflow.ErrSameVertex),
		errors.Is(err, planarflow.ErrSameFaceRequired),
		errors.Is(err, planarflow.ErrEpsilonRange),
		errors.Is(err, planarflow.ErrNegativeCycle),
		errors.Is(err, planarflow.ErrNegativeWeight),
		errors.Is(err, planarflow.ErrNonPositiveWeight),
		errors.Is(err, planarflow.ErrNilGraph),
		errors.Is(err, planarflow.ErrUnknownQueryKind),
		errors.Is(err, planarflow.ErrUnknownSubstrate),
		errors.Is(err, planarflow.ErrLeafLimitRange),
		errors.Is(err, planarflow.ErrWeightRange):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("flowd: reading body: %w", err)
	}
	return data, nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	req, err := DecodeRegister(data)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	gr, err := s.st.RegisterSpec(req.ID, req.Spec)
	if err != nil {
		s.log.Warn("register failed", "graph", req.ID, "err", err.Error())
		s.writeError(w, err)
		return
	}
	resp := RegisterResponse{ID: req.ID, N: gr.N(), M: gr.M(), Faces: gr.NumFaces()}
	// ?warm=1 prefetches the serving substrates before the response is
	// written, so cold-start construction happens here instead of on the
	// first user query. The graph stays registered if warming is cut short
	// by a dropped connection — the next query resumes the build.
	if warm := r.URL.Query().Get("warm"); warm == "1" || warm == "true" {
		if err := s.st.Warm(r.Context(), req.ID); err != nil {
			s.writeError(w, err)
			return
		}
		resp.Warmed = true
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot persists resident bundles to the store's disk tier.
// The write is synchronous: a 200 means the snapshots are on disk, so an
// operator can snapshot-then-restart knowing the warm set will survive.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	req, err := decodeStrict[SnapshotRequest](data, "snapshot request")
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	var ids []string
	if req.Graph != "" {
		ids = append(ids, req.Graph)
	}
	written, err := s.st.SnapshotResident(ids...)
	if err != nil {
		s.log.Warn("snapshot failed", "graph", req.Graph, "err", err.Error())
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, SnapshotResponse{Written: written})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	snap := s.st.Snapshot()
	s.writeJSON(w, http.StatusOK, StatsResponse{Store: snap, HitRate: snap.HitRate()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sp, ctx := s.beginSpan(r.Context(), "http", httpTrace(r))
	sp.Family = decodeFamily
	data, err := readBody(w, r)
	if err != nil {
		sp.MarkSince(obs.PhaseDecode, sp.Start)
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		s.finishRequest(sp, err.Error())
		return
	}
	req, err := DecodeQuery(data)
	sp.MarkSince(obs.PhaseDecode, sp.Start)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		s.finishRequest(sp, err.Error())
		return
	}
	sp.Family, sp.Graph = req.Op, req.Graph
	resp, err := s.runQuery(ctx, req)
	if err != nil {
		s.writeError(w, err)
		s.finishRequest(sp, err.Error())
		return
	}
	// Encode and write fuse on the HTTP plane: the JSON encoder streams
	// into the ResponseWriter.
	t0 := time.Now()
	s.writeJSON(w, http.StatusOK, resp)
	sp.MarkSince(obs.PhaseEncode, t0)
	s.finishRequest(sp, "")
}

func roundsOf(r planarflow.Rounds) Rounds {
	return Rounds{Total: r.Total, Build: r.Build, Query: r.Query}
}

// answerFields copies an Answer's kind-discriminated payload into the wire
// response. Flow assignments and cut bisections stay off the wire (they
// are O(m)/O(n) payloads; the wire carries the witness edge set instead).
func (resp *QueryResponse) answerFields(a *planarflow.Answer) {
	resp.Value = a.Value
	resp.Dist = a.Dist
	resp.CutEdges = a.Edges
	resp.NegCycle = a.NegCycle
	resp.Iterations = a.Iterations
	resp.Rounds = roundsOf(a.Rounds)
}

// runQuery executes one decoded query against the store: decoder output
// maps onto a planarflow.Query and execution is a single store.Do — the
// per-family dispatch lives in the library's query plane, not here.
func (s *Server) runQuery(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	begin := time.Now()
	a, hit, err := s.st.Do(ctx, req.Graph, req.Query())
	var rounds int64
	if a != nil {
		rounds = a.Rounds.Total
	}
	s.qmByOp[req.Op].record(rounds, err != nil)
	if err != nil {
		return nil, err
	}
	resp := &QueryResponse{Graph: req.Graph, Op: req.Op, Hit: hit}
	resp.answerFields(a)
	resp.WallMS = float64(time.Since(begin).Microseconds()) / 1000
	return resp, nil
}
