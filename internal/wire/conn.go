package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"planarflow/internal/obs"
)

// ErrConnClosed is the typed sentinel every request in flight on a
// connection fails with when that connection dies — peer reset, protocol
// violation, or local Close. The pool replaces a dead connection on its
// next use, so callers distinguishing "my request was canceled"
// (context.Canceled) from "the transport dropped" (ErrConnClosed) can
// retry idempotent work on the latter.
var ErrConnClosed = errors.New("wire: connection closed")

// pendingResult is what a waiter receives: a response frame's status and
// payload, or the connection's terminal error.
type pendingResult struct {
	status  Status
	payload []byte
	err     error
}

// Conn is one client connection: a writer goroutine coalescing request
// frames, a reader goroutine demultiplexing responses by request id, and
// a pending table of waiters. Many requests may be in flight at once
// (true pipelining); responses complete out of order.
type Conn struct {
	nc  net.Conn
	ctr *Counters

	nextID atomic.Uint64
	wch    chan []byte

	mu   sync.Mutex
	pend map[uint64]chan pendingResult
	err  error // set once, before pend is drained

	dead      chan struct{}
	deadOnce  sync.Once
	writerEnd chan struct{}
}

// dialConn opens one connection ("tcp" host:port, or "unix" socket
// path) and starts its reader/writer goroutines. ctr may be shared
// across a pool.
func dialConn(network, addr string, ctr *Counters) (*Conn, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s %s: %v", ErrUnavailable, network, addr, err)
	}
	c := &Conn{
		nc:        nc,
		ctr:       ctr,
		wch:       make(chan []byte, 256),
		pend:      make(map[uint64]chan pendingResult),
		dead:      make(chan struct{}),
		writerEnd: make(chan struct{}),
	}
	ctr.connsTotal.Add(1)
	ctr.connsOpen.Add(1)
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

// Do sends one request and waits for its response, honoring ctx while
// any number of other requests share the connection. On ctx
// cancellation exactly this request fails (with ctx.Err()); its id is
// forgotten and a late response is discarded. On connection death every
// in-flight request fails with an error wrapping ErrConnClosed.
func (c *Conn) Do(ctx context.Context, op Op, payload []byte) (Status, []byte, error) {
	id := c.nextID.Add(1)
	ch := make(chan pendingResult, 1)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, err
	}
	c.pend[id] = ch
	c.mu.Unlock()

	// A trace context on ctx rides the frame's trace block; without one
	// the block stays zero (untraced).
	tc, _ := obs.TraceFromContext(ctx)
	frame, err := AppendFrame(make([]byte, 0, frameOverhead+len(payload)), uint8(op), id, tc, payload)
	if err != nil {
		c.forget(id)
		return 0, nil, err
	}
	select {
	case c.wch <- frame:
	case <-c.dead:
		c.forget(id)
		return 0, nil, c.failure()
	case <-ctx.Done():
		c.forget(id)
		return 0, nil, ctx.Err()
	}
	c.ctr.noteFrameOut(len(payload))

	select {
	case r := <-ch:
		return r.status, r.payload, r.err
	case <-ctx.Done():
		c.forget(id)
		return 0, nil, ctx.Err()
	}
}

// forget drops a pending id (cancellation, send failure). A response
// that arrives later finds no waiter and is discarded by the reader.
func (c *Conn) forget(id uint64) {
	c.mu.Lock()
	delete(c.pend, id)
	c.mu.Unlock()
}

// failure returns the terminal error, which is always set by the time
// dead is closed.
func (c *Conn) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail terminates the connection once: records the error, closes the
// socket and the dead gate, and fails every pending waiter.
func (c *Conn) fail(cause error) {
	c.deadOnce.Do(func() {
		err := fmt.Errorf("%w: %v", ErrConnClosed, cause)
		c.mu.Lock()
		c.err = err
		pend := c.pend
		c.pend = make(map[uint64]chan pendingResult)
		c.mu.Unlock()
		c.nc.Close()
		close(c.dead)
		for _, ch := range pend {
			ch <- pendingResult{err: err} // cap 1: never blocks
		}
		c.ctr.connsOpen.Add(-1)
	})
}

// Close tears the connection down; in-flight requests fail with
// ErrConnClosed.
func (c *Conn) Close() error {
	c.fail(errors.New("closed by client"))
	return nil
}

// isDead reports whether the connection has failed.
func (c *Conn) isDead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// readLoop demultiplexes response frames to their waiters by id.
func (c *Conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 1<<16)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		if !f.IsResponse() {
			c.fail(fmt.Errorf("%w: request frame 0x%02x on the response direction", ErrBadKind, f.Kind))
			return
		}
		c.ctr.noteFrameIn(len(f.Payload))
		c.mu.Lock()
		ch := c.pend[f.ID]
		delete(c.pend, f.ID)
		c.mu.Unlock()
		if ch == nil {
			continue // canceled request's late response: discard
		}
		// ReadFrame's payload is freshly allocated per frame, so handing it
		// off without a copy is safe.
		ch <- pendingResult{status: f.Status(), payload: f.Payload}
	}
}

// writeLoop coalesces queued request frames: everything ready is
// appended to one buffered writer, flushed when the queue goes idle. A
// pipelined caller fan-in of N requests typically costs one syscall,
// not N.
//
// "Idle" is checked after one scheduler yield: a send into wch readies
// this goroutine immediately, so on a busy box (especially one core) the
// queue looks empty after every single frame while N senders stand
// ready to refill it. Yielding once lets them run; only a queue still
// empty after that pays the flush syscall.
func (c *Conn) writeLoop() {
	defer close(c.writerEnd)
	bw := bufio.NewWriterSize(c.nc, 1<<16)
	for {
		var frame []byte
		select {
		case frame = <-c.wch:
		case <-c.dead:
			return
		}
		for frame != nil {
			if _, err := bw.Write(frame); err != nil {
				c.fail(err)
				return
			}
			select {
			case frame = <-c.wch:
				continue
			default:
			}
			runtime.Gosched()
			select {
			case frame = <-c.wch:
			default:
				frame = nil
			}
		}
		if err := bw.Flush(); err != nil {
			c.fail(err)
			return
		}
		c.ctr.flushes.Add(1)
	}
}
