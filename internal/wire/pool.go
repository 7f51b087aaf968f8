package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed reports use of a closed pool.
var ErrPoolClosed = errors.New("wire: pool closed")

// ErrUnavailable is the typed "replica down" sentinel: every dial
// failure wraps it, so a caller (the fleet client) can distinguish a
// dead or unreachable server from a request the server rejected —
// without string matching. ErrConnClosed (an established connection
// dying mid-flight) is the same class from the routing point of view;
// classify with errors.Is against both.
var ErrUnavailable = errors.New("wire: server unavailable")

// DefaultPoolSize is the connection count NewPool uses for size <= 0:
// enough parallelism for a multi-core server while a single pipelined
// connection still carries most loads.
const DefaultPoolSize = 4

// Pool is the client side of the transport: a fixed set of lazily
// dialed connections, each pipelining many in-flight requests, with
// round-robin placement. A connection that dies fails its in-flight
// requests with ErrConnClosed and is replaced on the next use of its
// slot — the pool itself never retries (a query may have executed
// server-side; retry policy belongs to the caller).
type Pool struct {
	network string
	addr    string
	size    int
	ctr     Counters

	rr     atomic.Uint64
	mu     sync.Mutex
	conns  []*Conn
	closed bool
}

// NewPool targets a frame server at network/addr ("tcp" host:port, or
// "unix" socket path) with size connections (size <= 0 means
// DefaultPoolSize). Dialing is lazy: a pool against a dead server costs
// nothing until used.
func NewPool(network, addr string, size int) *Pool {
	if size <= 0 {
		size = DefaultPoolSize
	}
	return &Pool{network: network, addr: addr, size: size, conns: make([]*Conn, size)}
}

// Stats snapshots the pool's transport counters (shared by all its
// connections).
func (p *Pool) Stats() Stats { return p.ctr.Snapshot() }

// conn returns the slot's connection, dialing (or re-dialing a dead
// one) as needed.
func (p *Pool) conn(slot int) (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	c := p.conns[slot]
	if c != nil && !c.isDead() {
		return c, nil
	}
	nc, err := dialConn(p.network, p.addr, &p.ctr)
	if err != nil {
		return nil, err
	}
	p.conns[slot] = nc
	return nc, nil
}

// Do sends one request over the next connection in round-robin order
// and waits for its response. Requests from concurrent callers pipeline
// freely over the same connections.
func (p *Pool) Do(ctx context.Context, op Op, payload []byte) (Status, []byte, error) {
	slot := int(p.rr.Add(1)-1) % p.size
	c, err := p.conn(slot)
	if err != nil {
		return 0, nil, err
	}
	return c.Do(ctx, op, payload)
}

// Ping round-trips an empty OpPing frame, verifying the transport and
// the server's handler loop end to end.
func (p *Pool) Ping(ctx context.Context) error {
	status, _, err := p.Do(ctx, OpPing, nil)
	if err != nil {
		return err
	}
	if status != StatusOK {
		return fmt.Errorf("wire: ping status %s", status)
	}
	return nil
}

// Close closes every connection; in-flight requests fail with
// ErrConnClosed and subsequent calls fail with ErrPoolClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, c := range p.conns {
		if c != nil {
			c.Close()
		}
	}
	return nil
}
