package flowd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"

	"planarflow/internal/obs"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

// APIError is a daemon-reported HTTP failure: the status code plus the
// decoded error body. Typed so callers (the fleet client above all) can
// branch on the status class — 404 unknown graph vs 409 duplicate —
// without string matching.
type APIError struct {
	Status int
	Msg    string
	method string
	path   string
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("flowd client: %s %s: status %d: %s", e.method, e.path, e.Status, e.Msg)
	}
	return fmt.Sprintf("flowd client: %s %s: status %d", e.method, e.path, e.Status)
}

// apiError decodes a non-2xx response body into the typed error.
func apiError(method, path string, status int, body []byte) *APIError {
	var e errorResponse
	_ = json.Unmarshal(body, &e)
	return &APIError{Status: status, Msg: e.Error, method: method, path: path}
}

// IsUnavailable classifies transport-level failures — the server is
// down, unreachable, or the connection died mid-flight — as opposed to
// the server rejecting the request. True for wire dial failures
// (wire.ErrUnavailable), dead wire connections (ErrConnClosed), closed
// pools, and HTTP transport errors (*url.Error / net.OpError under the
// client's %w wrapping). The fleet client ejects a replica and re-routes
// on exactly this class.
func IsUnavailable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, wire.ErrUnavailable) || errors.Is(err, wire.ErrConnClosed) ||
		errors.Is(err, wire.ErrPoolClosed) || errors.Is(err, wire.ErrServerClosed) {
		return true
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// IsNotFound reports a daemon answering "no such graph" on either
// plane: an HTTP 404 APIError or a wire StatusNotFound. The fleet
// client reads it as "this replica does not hold the graph yet" and
// runs the adopt path (register + restore) before retrying.
func IsNotFound(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusNotFound
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == wire.StatusNotFound
	}
	return false
}

// ClientMaxIdleConnsPerHost sizes NewClient's connection pool. The
// stdlib default (http.DefaultMaxIdleConnsPerHost = 2) closes all but
// two keep-alive connections to the daemon, so a benchmark driving C=8+
// concurrent clients re-handshakes on most requests; this floor keeps
// every benchmark-scale worker on a persistent connection.
const ClientMaxIdleConnsPerHost = 64

// Client is the Go client for a flowd daemon's HTTP plane. NewClient
// installs a transport with keep-alive pooling sized for benchmark
// concurrency (see ClientMaxIdleConnsPerHost). All methods honor ctx. For
// the high-rate query path over the binary transport, pair with a
// WireClient via WithWireTransport.
type Client struct {
	base string
	hc   *http.Client
	wc   *WireClient // nil: Query/QueryBatch go over HTTP
}

// NewClient targets a daemon at base (e.g. "http://127.0.0.1:8373").
func NewClient(base string) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = ClientMaxIdleConnsPerHost
	if tr.MaxIdleConns < ClientMaxIdleConnsPerHost {
		tr.MaxIdleConns = ClientMaxIdleConnsPerHost
	}
	return &Client{base: base, hc: &http.Client{Transport: tr}}
}

// WithWireTransport routes Query and QueryBatch over the binary wire
// transport while every control-plane method (Register, RegisterWarm,
// Health) stays on HTTP. Answers are identical either way — the wire
// plane shares the daemon's decoders and execution (the differential
// tests pin byte-identity) — only the transport cost changes. The caller
// owns wc's lifecycle (Close it when done).
func (c *Client) WithWireTransport(wc *WireClient) *Client {
	return &Client{base: c.base, hc: c.hc, wc: wc}
}

// do runs one JSON round trip. A non-2xx response is decoded as the
// daemon's error body and returned as an error carrying the status.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("flowd client: encode: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("flowd client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		req.Header.Set(obs.TraceHeader, tc.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("flowd client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("flowd client: read: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return apiError(method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("flowd client: decode: %w", err)
	}
	return nil
}

// Register generates and registers a graph on the daemon.
func (c *Client) Register(ctx context.Context, id string, spec store.GraphSpec) (*RegisterResponse, error) {
	var out RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/graphs", RegisterRequest{ID: id, Spec: spec}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterWarm is Register with the ?warm=1 prefetch: the daemon builds
// the graph's serving substrates before responding, so the first user
// query finds them resident instead of paying the cold-start build.
func (c *Client) RegisterWarm(ctx context.Context, id string, spec store.GraphSpec) (*RegisterResponse, error) {
	var out RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/graphs?warm=1", RegisterRequest{ID: id, Spec: spec}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query runs one query, over the wire transport when one is attached.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	if c.wc != nil {
		return c.wc.Query(ctx, req)
	}
	var out QueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryBatch runs a batch of queries against one graph under a single
// bundle acquisition on the daemon. Per-query failures come back in the
// index-aligned Results entries (Error set); the call itself fails only
// for batch-level problems (bad request, unknown graph, cancellation).
func (c *Client) QueryBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if c.wc != nil {
		return c.wc.QueryBatch(ctx, req)
	}
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health scrapes /healthz and returns the typed readiness body.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
