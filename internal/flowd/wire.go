package flowd

// The binary wire plane: the same daemon served over internal/wire's
// framed transport instead of HTTP. Four ops: OpPing, OpQueryB and
// OpBatchB (a QueryRequest / BatchRequest and their responses on the
// binary payload codec, wirecodec.go), and OpQuery, whose payloads ARE
// the POST /v1/query JSON bodies, decoded by the same strict DecodeQuery.
// Every op executes through the same runQuery/runBatch as HTTP, so a
// wire answer equals the HTTP answer for the same request (the
// planarflow package's TestEveryRouteAgrees pins that). What changes is purely transport:
// persistent connections, many in-flight requests per connection
// multiplexed by request id, and write coalescing on both directions.
//
// HTTP stays the control/compat plane (register, snapshot, restore,
// statsz); the wire plane carries the high-rate query traffic.
// WireClient is the matching client: a connection pool with true
// pipelining, sending only the binary ops.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"planarflow/internal/obs"
	"planarflow/internal/wire"
)

// encodeBody marshals v exactly as the HTTP plane does (json.Encoder
// appends a newline), so wire payloads and HTTP bodies are
// byte-identical for the same value.
func encodeBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// errBody is the uniform error payload, the wire twin of writeError.
func errBody(msg string) []byte {
	b, _ := encodeBody(errorResponse{Error: msg}) // errorResponse always marshals
	return b
}

// wireStatusOf projects the library's sentinel errors onto wire
// statuses through the same classification statusOf uses for HTTP, so
// the two planes cannot disagree about an error's class. The full
// mapping table (HTTP status ↔ wire status ↔ sentinel) is in DESIGN.md.
func wireStatusOf(err error) wire.Status {
	switch statusOf(err) {
	case http.StatusNotFound:
		return wire.StatusNotFound
	case http.StatusConflict:
		return wire.StatusConflict
	case http.StatusTooManyRequests:
		return wire.StatusOverload
	case http.StatusBadRequest:
		return wire.StatusBadRequest
	case 499:
		return wire.StatusCanceled
	case http.StatusGatewayTimeout:
		return wire.StatusTimeout
	default:
		return wire.StatusInternal
	}
}

// HTTPStatusOf is wireStatusOf's inverse: the HTTP status a wire status
// stands for, so a proxy that met a StatusError answers its own HTTP
// caller in the class the replica chose.
func HTTPStatusOf(s wire.Status) int {
	switch s {
	case wire.StatusNotFound:
		return http.StatusNotFound
	case wire.StatusConflict:
		return http.StatusConflict
	case wire.StatusOverload:
		return http.StatusTooManyRequests
	case wire.StatusBadRequest:
		return http.StatusBadRequest
	case wire.StatusCanceled:
		return 499
	case wire.StatusTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// Wire returns the daemon's binary-transport server, creating it on
// first use. Serve it on any listener (cmd/flowd wires -listen-wire and
// -listen-uds here); all listeners share one server, one set of
// transport counters, and this daemon's execution plane. The counters
// register on the server's registry as the server role (client pools
// keep theirs off the registry to avoid colliding series).
func (s *Server) Wire() *wire.Server {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.wireSrv == nil {
		s.wireSrv = wire.NewServer(s)
		s.wireSrv.Counters().RegisterObs(s.reg, obs.L("role", "server"))
	}
	return s.wireSrv
}

// ServeFrame implements wire.Handler: one request frame in, one
// response frame out. Each query/batch frame runs under a span keyed by
// the frame id; pings and unknown ops are not traced.
func (s *Server) ServeFrame(ctx context.Context, op wire.Op, id uint64, payload []byte) (wire.Status, []byte) {
	switch op {
	case wire.OpPing:
		b, _ := encodeBody(map[string]string{"status": "ok"})
		return wire.StatusOK, b
	case wire.OpQuery:
		return s.serveQueryFrame(ctx, id, payload, DecodeQuery,
			func(resp *QueryResponse) (wire.Status, []byte) { return s.okBody(resp) })
	case wire.OpQueryB:
		return s.serveQueryFrame(ctx, id, payload, decodeWireQueryRequest,
			func(resp *QueryResponse) (wire.Status, []byte) {
				return wire.StatusOK, appendWireQueryResponse(make([]byte, 0, 96+8*len(resp.Dist)+8*len(resp.CutEdges)), resp)
			})
	case wire.OpBatchB:
		return s.serveBatchFrame(ctx, id, payload)
	default:
		return wire.StatusBadRequest, errBody(fmt.Sprintf("flowd: unknown wire op %d", op))
	}
}

// serveQueryFrame is the wire plane's span-wrapped singleton execution,
// parameterized over the JSON and binary payload codecs.
func (s *Server) serveQueryFrame(ctx context.Context, id uint64, payload []byte,
	decode func([]byte) (*QueryRequest, error),
	encode func(*QueryResponse) (wire.Status, []byte)) (wire.Status, []byte) {
	sp, ctx := s.beginWireSpan(ctx, id)
	sp.Family = decodeFamily
	req, err := decode(payload)
	sp.MarkSince(obs.PhaseDecode, sp.Start)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wire.StatusBadRequest, errBody(err.Error())
	}
	sp.Family, sp.Graph = req.Op, req.Graph
	resp, err := s.runQuery(ctx, req)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wireStatusOf(err), errBody(err.Error())
	}
	t0 := time.Now()
	status, body := encode(resp)
	sp.MarkSince(obs.PhaseEncode, t0)
	s.finishRequest(sp, "")
	return status, body
}

// serveBatchFrame is serveQueryFrame's batch twin, on the binary codec
// only (a JSON batch goes over POST /v1/batch); it also records the
// frame's size (how many queries arrived per batch frame — /metricsz's
// wire_coalesced_*).
func (s *Server) serveBatchFrame(ctx context.Context, id uint64, payload []byte) (wire.Status, []byte) {
	sp, ctx := s.beginWireSpan(ctx, id)
	sp.Family = decodeFamily
	req, err := decodeWireBatchRequest(payload)
	sp.MarkSince(obs.PhaseDecode, sp.Start)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wire.StatusBadRequest, errBody(err.Error())
	}
	sp.Family, sp.Graph = batchFamily, req.Graph
	s.Wire().Counters().AddCoalesced(len(req.Queries))
	resp, err := s.runBatch(ctx, req)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wireStatusOf(err), errBody(err.Error())
	}
	t0 := time.Now()
	body := appendWireBatchResponse(make([]byte, 0, 32+96*len(resp.Results)), resp)
	sp.MarkSince(obs.PhaseEncode, t0)
	s.finishRequest(sp, "")
	return wire.StatusOK, body
}

// okBody encodes a success payload; an encode failure (cannot happen
// for the response types, but the transport must stay total) degrades
// to an internal error so the requester is never left hanging.
func (s *Server) okBody(v any) (wire.Status, []byte) {
	b, err := encodeBody(v)
	if err != nil {
		return wire.StatusInternal, errBody("flowd: encoding response: " + err.Error())
	}
	return wire.StatusOK, b
}

// StatusError is a daemon-reported failure over the wire transport: the
// wire status plus the error body's message. errors.Is maps the
// cancellation statuses back onto the context sentinels, so callers
// handle "server observed my cancellation" and "my own ctx fired" the
// same way they do over HTTP.
type StatusError struct {
	Status wire.Status
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("flowd wire: status %s: %s", e.Status, e.Msg)
}

// Is matches the context sentinels for the cancellation statuses.
func (e *StatusError) Is(target error) bool {
	switch target {
	case context.Canceled:
		return e.Status == wire.StatusCanceled
	case context.DeadlineExceeded:
		return e.Status == wire.StatusTimeout
	}
	return false
}

// wireErr decodes an error frame into a StatusError.
func wireErr(status wire.Status, body []byte) error {
	var e errorResponse
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		e.Error = fmt.Sprintf("(%d-byte undecodable error body)", len(body))
	}
	return &StatusError{Status: status, Msg: e.Error}
}

// WireOptions configures a WireClient.
type WireOptions struct {
	// PoolSize is the connection count (<= 0 = wire.DefaultPoolSize).
	// Requests pipeline freely within each connection, so the pool sizes
	// for server-side parallelism, not for concurrent callers.
	PoolSize int
}

// WireClient is the Go client for the daemon's binary transport: a
// connection pool with true pipelining — any number of concurrent
// Query/QueryBatch calls share the pool's connections, each call
// waiting only on its own request id. Control-plane operations
// (register, stats, snapshot) stay on the HTTP Client; pair the two
// with Client.WithWireTransport.
type WireClient struct {
	pool *wire.Pool
}

// NewWireClient targets a wire listener ("tcp" host:port, or "unix"
// socket path).
func NewWireClient(network, addr string, opt WireOptions) *WireClient {
	return &WireClient{pool: wire.NewPool(network, addr, opt.PoolSize)}
}

// TransportStats snapshots the client's transport counters (frames,
// bytes, flush coalescing).
func (c *WireClient) TransportStats() wire.Stats { return c.pool.Stats() }

// Ping verifies the transport end to end.
func (c *WireClient) Ping(ctx context.Context) error { return c.pool.Ping(ctx) }

// Close releases the connections; in-flight requests fail with
// wire.ErrConnClosed.
func (c *WireClient) Close() error { return c.pool.Close() }

// Query runs one query over the wire, on the binary payload codec.
func (c *WireClient) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	payload := appendWireQueryRequest(make([]byte, 0, 64), &req)
	status, body, err := c.pool.Do(ctx, wire.OpQueryB, payload)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: query: %w", err)
	}
	if status != wire.StatusOK {
		return nil, wireErr(status, body)
	}
	out, err := decodeWireQueryResponse(body)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: decode: %w", err)
	}
	return out, nil
}

// QueryBatch runs one explicit batch over the wire, with the HTTP batch
// endpoint's semantics (per-entry error isolation), on the binary
// payload codec.
func (c *WireClient) QueryBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	payload := appendWireBatchRequest(make([]byte, 0, 32+56*len(req.Queries)), &req)
	status, body, err := c.pool.Do(ctx, wire.OpBatchB, payload)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: batch: %w", err)
	}
	if status != wire.StatusOK {
		return nil, wireErr(status, body)
	}
	out, err := decodeWireBatchResponse(body)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: decode: %w", err)
	}
	return out, nil
}
