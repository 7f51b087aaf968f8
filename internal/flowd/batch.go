package flowd

// The batch endpoint: POST /v1/batch runs up to MaxBatchQueries queries
// against one graph under a single store acquisition — one registry
// lookup, one LRU touch and one bundle pin for the whole batch, so B
// queries cost one unit of store traffic instead of B. Failures are
// isolated per entry: a bad query yields its own error string while the
// rest of the batch answers normally; only batch-level failures (unknown
// graph, canceled request) fail the HTTP request.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"planarflow"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

// MaxBatchQueries caps the number of queries one batch request may carry:
// enough to amortize the wire and store overhead, small enough that a
// single request cannot monopolize the worker pool.
const MaxBatchQueries = 256

// MaxBatchWorkers caps the client-requested concurrency of one batch.
const MaxBatchWorkers = 64

// BatchQuery is one entry of a batch: a QueryRequest without the graph id
// (the batch's graph applies to every entry).
type BatchQuery struct {
	Op     string  `json:"op"`
	U      int     `json:"u,omitempty"`
	V      int     `json:"v,omitempty"`
	Source int     `json:"source,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
}

// Query maps the entry onto the library's query value. As for
// QueryRequest.Query, the per-phase rounds breakdown is not requested.
func (q *BatchQuery) Query() planarflow.Query {
	return planarflow.Query{
		Kind: planarflow.QueryKind(q.Op),
		U:    q.U, V: q.V, Source: q.Source, Eps: q.Eps,
		NoPhases: true,
	}
}

// BatchRequest runs Queries against Graph under one bundle acquisition.
type BatchRequest struct {
	Graph   string       `json:"graph"`
	Queries []BatchQuery `json:"queries"`
	// Workers bounds how many queries run concurrently on the daemon
	// (0 = the daemon's default, min(batch size, GOMAXPROCS)).
	Workers int `json:"workers,omitempty"`
}

// BatchResult is one entry's outcome: either the answer fields or Error.
type BatchResult struct {
	Op         string  `json:"op"`
	Value      int64   `json:"value"`
	Dist       []int64 `json:"dist,omitempty"`
	CutEdges   []int   `json:"cut_edges,omitempty"`
	NegCycle   bool    `json:"neg_cycle,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Rounds     Rounds  `json:"rounds"`
	Error      string  `json:"error,omitempty"`
}

// BatchResponse is the result of one batch, index-aligned with the
// request's Queries. Hit reports whether the graph's bundle was resident
// when the batch arrived (one acquisition, so one hit bit).
type BatchResponse struct {
	Graph   string        `json:"graph"`
	Results []BatchResult `json:"results"`
	Hit     bool          `json:"hit"`
	WallMS  float64       `json:"wall_ms"`
}

// check is a batch request's one rule, on every plane: the graph id
// passes store.CheckID, the batch holds 1..MaxBatchQueries entries, workers
// are in [0, MaxBatchWorkers], and every entry passes
// planarflow.Query.Validate. DecodeBatch and the binary decoder both call
// it.
func (r *BatchRequest) check() error {
	if err := store.CheckID(r.Graph); err != nil {
		return fmt.Errorf("flowd: bad batch: %w", err)
	}
	if len(r.Queries) == 0 {
		return errors.New("flowd: bad batch: empty query list")
	}
	if len(r.Queries) > MaxBatchQueries {
		return fmt.Errorf("flowd: bad batch: %d queries exceeds cap %d", len(r.Queries), MaxBatchQueries)
	}
	if r.Workers < 0 || r.Workers > MaxBatchWorkers {
		return fmt.Errorf("flowd: bad batch: workers=%d out of [0, %d]", r.Workers, MaxBatchWorkers)
	}
	for i := range r.Queries {
		if err := r.Queries[i].Query().Validate(); err != nil {
			return fmt.Errorf("flowd: bad batch: query %d: %w", i, err)
		}
	}
	return nil
}

// DecodeBatch parses and checks one batch request with the same
// strictness contract as DecodeQuery: unknown fields and trailing garbage
// are rejected, then check applies, and no input may panic
// (FuzzDecodeBatch holds it to that). Graph-dependent range checks happen
// at query time, isolated per entry.
func DecodeBatch(data []byte) (*BatchRequest, error) {
	req, err := decodeStrict[BatchRequest](data, "batch")
	if err != nil {
		return nil, err
	}
	if err := req.check(); err != nil {
		return nil, err
	}
	return req, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sp, ctx := s.beginSpan(r.Context(), "http", httpTrace(r))
	sp.Family = decodeFamily
	data, err := readBody(w, r)
	if err != nil {
		sp.MarkSince(obs.PhaseDecode, sp.Start)
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		s.finishRequest(sp, err.Error())
		return
	}
	req, err := DecodeBatch(data)
	sp.MarkSince(obs.PhaseDecode, sp.Start)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		s.finishRequest(sp, err.Error())
		return
	}
	sp.Family, sp.Graph = batchFamily, req.Graph
	resp, err := s.runBatch(ctx, req)
	if err != nil {
		s.writeError(w, err)
		s.finishRequest(sp, err.Error())
		return
	}
	t0 := time.Now()
	s.writeJSON(w, http.StatusOK, resp)
	sp.MarkSince(obs.PhaseEncode, t0)
	s.finishRequest(sp, "")
}

// runBatch executes one decoded batch against the store — the execution
// shared by POST /v1/batch and the wire transport's OpBatchB frames, so
// the two planes cannot drift.
func (s *Server) runBatch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	begin := time.Now()
	queries := make([]planarflow.Query, len(req.Queries))
	for i := range req.Queries {
		queries[i] = req.Queries[i].Query()
	}
	answers, hit, err := s.st.DoBatch(ctx, req.Graph, queries, planarflow.BatchOptions{Workers: req.Workers})
	if err != nil {
		return nil, err
	}

	resp := &BatchResponse{Graph: req.Graph, Hit: hit, Results: make([]BatchResult, len(answers))}
	for i, a := range answers {
		res := BatchResult{Op: req.Queries[i].Op}
		switch {
		case a == nil: // defensive: DoBatch settles every entry
			res.Error = "flowd: query not executed"
			s.qmByOp[res.Op].record(0, true)
		case a.Err != nil:
			res.Error = a.Err.Error()
			s.qmByOp[res.Op].record(0, true)
		default:
			res.Value = a.Value
			res.Dist = a.Dist
			res.CutEdges = a.Edges
			res.NegCycle = a.NegCycle
			res.Iterations = a.Iterations
			res.Rounds = roundsOf(a.Rounds)
			s.qmByOp[res.Op].record(a.Rounds.Total, false)
		}
		resp.Results[i] = res
	}
	resp.WallMS = float64(time.Since(begin).Microseconds()) / 1000
	return resp, nil
}
