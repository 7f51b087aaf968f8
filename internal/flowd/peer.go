package flowd

// The daemon's peer plane: the two endpoints the fleet's snapshot
// shipping runs on, plus the client methods that drive them.
//
//	GET  /v1/snapshot/{graph}   the graph's PFSNAP snapshot bytes, as
//	                            store.SnapshotTo writes them (404 when the
//	                            graph is unknown or holds no snapshot
//	                            anywhere)
//	POST /v1/restore            make the graph resident via the fallback
//	                            ladder: peer fetch → local SpillDir →
//	                            nothing (the next query rebuilds cold)
//
// The body carries no framing of its own: the PFSNAP envelope already
// checks magic, version, the graph fingerprint, a CRC per section and
// truncation, and the store's InstallSnapshot validates all of it against
// the locally registered graph — the one validator of peer bytes, as it
// is of disk-tier files. A peer serving damaged, cut, stale or foreign
// bytes can cost a fetch, never a wrong answer.
//
// The ladder's policy — which peers, in what order — belongs to the
// fleet client (it knows the ring); the daemon only executes a fetch
// list it is handed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"planarflow/internal/obs"
)

// ErrNoSnapshot reports a snapshot fetch for a graph with no resident
// bundle and no disk snapshot — nothing to ship.
var ErrNoSnapshot = errors.New("flowd: no snapshot available")

// RestoreRequest asks the daemon to make one graph's bundle resident
// without running a query: try each peer base URL in order (snapshot
// fetch + install), then the local disk tier. Peers is optional — an
// empty list is a disk-only restore.
type RestoreRequest struct {
	Graph string   `json:"graph"`
	Peers []string `json:"peers,omitempty"`
}

// RestoreResponse reports what the restore ladder found. Source is
// "resident" (nothing to do), "peer" (Peer holds which), "disk", or
// "none" (every rung missed; the next query rebuilds cold — which is
// the ladder's designed floor, not an error).
type RestoreResponse struct {
	Graph    string `json:"graph"`
	Restored bool   `json:"restored"`
	Source   string `json:"source"`
	Peer     string `json:"peer,omitempty"`
}

// peerFetchTimeout bounds one peer snapshot fetch inside the restore
// ladder: a dead peer must cost one rung, not the whole request budget.
const peerFetchTimeout = 10 * time.Second

// maxSnapBytes caps a fetched snapshot body: the bytes come off another
// host, so their size must never drive an unbounded allocation (serving
// graphs snapshot to a few MB; this is headroom, not a tuning knob).
const maxSnapBytes = 256 << 20

// handleFetchSnapshot serves the graph's snapshot bytes. They are encoded
// into memory first (bundles are a few MB and the encode is pinned either
// way), so a failure before the first body byte is still a clean JSON
// error and the response carries its Content-Length.
func (s *Server) handleFetchSnapshot(w http.ResponseWriter, r *http.Request) {
	graph := r.PathValue("graph")
	sp, _ := s.beginSpan(r.Context(), "http", httpTrace(r))
	sp.Family, sp.Graph = "snapfetch", graph
	var buf bytes.Buffer
	ok, err := s.st.SnapshotTo(graph, &buf)
	if err != nil {
		s.writeError(w, err)
		s.finishRequest(sp, err.Error())
		return
	}
	if !ok {
		err := fmt.Errorf("%w: %q", ErrNoSnapshot, graph)
		s.writeError(w, err)
		s.finishRequest(sp, err.Error())
		return
	}
	sp.Annotate("bytes", strconv.Itoa(buf.Len()))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Mid-body failure: the fetcher's install sees truncated bytes and
		// falls back; all we can do is count it.
		s.writeErrs.Inc()
		s.log.Warn("snapshot body write failed", "graph", graph, "err", err.Error())
		s.finishRequest(sp, err.Error())
		return
	}
	s.finishRequest(sp, "")
}

// handleRestore runs the restore ladder for one graph.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	req, err := decodeStrict[RestoreRequest](data, "restore request")
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if req.Graph == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "flowd: bad restore request: missing graph id"})
		return
	}
	sp, ctx := s.beginSpan(r.Context(), "http", httpTrace(r))
	sp.Family, sp.Graph = "restore", req.Graph
	resp, err := s.restore(ctx, req.Graph, req.Peers)
	if err != nil {
		s.writeError(w, err)
		s.finishRequest(sp, err.Error())
		return
	}
	sp.Annotate("source", resp.Source)
	if resp.Peer != "" {
		sp.Annotate("peer", resp.Peer)
	}
	s.writeJSON(w, http.StatusOK, resp)
	s.finishRequest(sp, "")
}

// restore executes the fallback ladder: peer fetch (each peer in the
// given order), then the local disk tier, then nothing. Unknown graphs
// error; every other miss is a rung, not a failure.
func (s *Server) restore(ctx context.Context, graph string, peers []string) (*RestoreResponse, error) {
	resp := &RestoreResponse{Graph: graph}
	if s.st.Graph(graph) == nil {
		_, err := s.st.TryRestore(graph) // surfaces the typed unknown-graph error
		return nil, err
	}
	for _, peer := range peers {
		fctx, cancel := context.WithTimeout(ctx, peerFetchTimeout)
		snap, err := (&Client{base: peer, hc: s.peerHC}).FetchSnapshot(fctx, graph)
		cancel()
		if err != nil {
			s.log.Debug("peer snapshot fetch missed", "graph", graph, "peer", peer, "err", err.Error())
			continue
		}
		installed, err := s.st.InstallSnapshot(graph, snap)
		if err != nil {
			s.log.Warn("peer snapshot rejected", "graph", graph, "peer", peer, "err", err.Error())
			continue
		}
		// installed=false means a bundle is already resident (we lost a
		// benign race) — equally restored from the caller's point of view.
		resp.Restored = true
		resp.Source, resp.Peer = "peer", peer
		if !installed {
			resp.Source = "resident"
		}
		return resp, nil
	}
	restored, err := s.st.TryRestore(graph)
	if err != nil {
		return nil, err
	}
	if restored {
		resp.Restored, resp.Source = true, "disk"
		return resp, nil
	}
	resp.Source = "none"
	return resp, nil
}

// decodeStrict is the daemon's one JSON request decode: unknown fields
// and trailing data rejected, errors prefixed "flowd: bad <what>: ".
func decodeStrict[T any](data []byte, what string) (*T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("flowd: bad %s: %w", what, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("flowd: bad %s: trailing data after JSON object", what)
	}
	return &v, nil
}

// ---- client side ----

// FetchSnapshot pulls graph's PFSNAP snapshot bytes off the daemon,
// unvalidated: install them with store.InstallSnapshot (or hand them to
// another daemon's restore path), which checks the whole envelope. A body
// past maxSnapBytes is an error.
func (c *Client) FetchSnapshot(ctx context.Context, graph string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/snapshot/"+url.PathEscape(graph), nil)
	if err != nil {
		return nil, fmt.Errorf("flowd client: %w", err)
	}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		req.Header.Set(obs.TraceHeader, tc.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("flowd client: GET /v1/snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		return nil, apiError(http.MethodGet, "/v1/snapshot/"+graph, resp.StatusCode, data)
	}
	snap, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapBytes+1))
	if err != nil {
		return nil, fmt.Errorf("flowd client: GET /v1/snapshot: %w", err)
	}
	if len(snap) > maxSnapBytes {
		return nil, fmt.Errorf("flowd client: GET /v1/snapshot: body exceeds %d bytes", maxSnapBytes)
	}
	return snap, nil
}

// Restore runs the daemon's restore ladder for one graph: peers in
// order, then the daemon's local disk tier.
func (c *Client) Restore(ctx context.Context, graph string, peers []string) (*RestoreResponse, error) {
	var out RestoreResponse
	if err := c.do(ctx, http.MethodPost, "/v1/restore", RestoreRequest{Graph: graph, Peers: peers}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
