package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"planarflow/internal/obs"
)

// mWriteDwell measures how long a finished response sits in the
// connection's write queue before the writer encodes it — the price of
// write coalescing, visible nowhere else (the frame outlives its span).
var mWriteDwell = obs.Default().Histogram("wire_write_queue_seconds",
	"Server response dwell in the per-connection write queue before encoding.")

// maxConnWorkers bounds how many handler goroutines one connection may
// have. A pipelined client controls its own window; this cap is the
// server-side backstop — with every worker busy the reader loop stops
// pulling frames and TCP backpressure does the rest.
const maxConnWorkers = 128

// respChanCap sizes each connection's response queue. Responses are
// produced by at most maxConnWorkers handlers, so the writer goroutine
// can never deadlock against a full queue.
const respChanCap = maxConnWorkers + 8

// Handler executes one request frame's payload and returns the response
// status and payload. The wire server is transport only: it never looks
// inside payloads, so a Handler carries all the semantics (flowd's
// Server implements it over the JSON bodies the HTTP plane uses).
//
// ctx is canceled when the connection drops or the server shuts down,
// letting in-flight queries abandon substrate builds at their usual
// checkpoints. id is the request frame's id — stable for the frame's
// lifetime, which makes it the natural per-request trace key.
type Handler interface {
	ServeFrame(ctx context.Context, op Op, id uint64, payload []byte) (Status, []byte)
}

// Server serves the framed protocol over any set of listeners (TCP and
// Unix-domain sockets in flowd). One reader goroutine per connection
// feeds that connection's handler workers; responses multiplex back
// over a per-conn writer that coalesces frames between flushes, so
// out-of-order completion is the normal case, matched by request id.
type Server struct {
	h   Handler
	ctr Counters

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	wg       sync.WaitGroup

	// baseCtx parents every handler context; Close cancels it, so even a
	// drain that degrades to an abrupt Close (Shutdown past its deadline)
	// can cut loose handlers the drain path is still waiting on.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// NewServer wraps h in a frame server.
func NewServer(h Handler) *Server {
	s := &Server{h: h, lns: make(map[net.Listener]struct{}), conns: make(map[net.Conn]struct{})}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Counters exposes the live counters (flowd adds the sizes of the
// OpBatchB frames it decodes).
func (s *Server) Counters() *Counters { return &s.ctr }

// ErrServerClosed is returned by Serve after Close, mirroring
// http.ErrServerClosed so callers can treat shutdown as clean.
var ErrServerClosed = errors.New("wire: server closed")

// Serve accepts connections on ln until Close (or a listener error) and
// blocks for as long as it serves. One Server may serve any number of
// listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed || s.draining
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.ctr.connsTotal.Add(1)
		s.ctr.connsOpen.Add(1)
		go s.serveConn(nc)
	}
}

// Close shuts the server down: listeners and connections close, in-flight
// handler contexts cancel, and Close returns once every connection
// goroutine has drained.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	return nil
}

// closeReader is the half-close surface TCP and Unix-domain connections
// share: CloseRead shuts the inbound direction so the peer's next write
// fails and our reader sees EOF, while queued responses still flush out
// the other direction.
type closeReader interface{ CloseRead() error }

// Shutdown drains the server gracefully: listeners stop accepting, every
// connection's read side closes (no new requests enter), in-flight
// handlers run to completion and their responses flush, and then the
// connections close. If ctx expires first, Shutdown falls back to the
// abrupt Close. Returns nil on a clean drain, ctx.Err() on timeout.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for ln := range s.lns {
		ln.Close()
	}
	for nc := range s.conns {
		if cr, ok := nc.(closeReader); ok {
			cr.CloseRead()
		} else {
			nc.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.Close()
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}

// drainActive reports whether a graceful drain is in progress.
func (s *Server) drainActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// outFrame is one response queued for a connection's writer.
type outFrame struct {
	kind    uint8
	id      uint64
	payload []byte
	enq     time.Time // when the handler queued it (write dwell)
}

// serveConn runs one connection: a reader loop handing frames to the
// connection's handler workers (at most maxConnWorkers) and a writer
// goroutine multiplexing their responses back in completion order.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	out := make(chan outFrame, respChanCap)
	writerDone := make(chan struct{})
	go s.connWriter(nc, out, writerDone)

	// Workers live as long as the connection: each serves its first frame,
	// then parks on work for the next one, so a steady stream of frames
	// reuses goroutines (and their already-grown stacks) instead of
	// starting one per frame. The channel is unbuffered, so a send that
	// does not block found an idle worker.
	var handlers sync.WaitGroup
	work := make(chan Frame)
	workers := 0
	br := bufio.NewReaderSize(nc, 1<<16)
	var readErr error
	for {
		f, err := ReadFrame(br)
		if err != nil {
			readErr = err
			break
		}
		if f.IsResponse() {
			readErr = fmt.Errorf("%w: response frame 0x%02x on the request direction", ErrBadKind, f.Kind)
			break
		}
		s.ctr.noteFrameIn(len(f.Payload))
		select {
		case work <- f:
		default:
			if workers < maxConnWorkers {
				workers++
				handlers.Add(1)
				go s.connWorker(ctx, f, work, out, &handlers)
			} else {
				work <- f // every worker busy: wait for one, as TCP backpressure builds
			}
		}
	}

	// A protocol violation poisons the connection: frame boundaries are
	// untrustworthy after it, so drop the conn rather than resync. Under a
	// graceful drain the reader stopped via the half-close (EOF), and the
	// order inverts: in-flight handlers run to completion, their responses
	// flush, and only then does the socket close — that IS the drain.
	close(work)
	if s.drainActive() {
		handlers.Wait()
		close(out)
		<-writerDone
		cancel()
		nc.Close()
	} else {
		cancel()
		nc.Close() // unblocks nothing here, but stops the writer's net writes cleanly
		handlers.Wait()
		close(out)
		<-writerDone
	}
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.ctr.connsOpen.Add(-1)
	_ = readErr // clean EOF and peer resets end the conn the same way
}

// connWorker is one of a connection's handler goroutines: it serves f,
// then every frame the reader hands it, until the reader closes work.
func (s *Server) connWorker(ctx context.Context, f Frame, work <-chan Frame, out chan<- outFrame, handlers *sync.WaitGroup) {
	defer handlers.Done()
	for ok := true; ok; f, ok = <-work {
		hctx := ctx
		if f.Trace.Valid() {
			hctx = obs.ContextWithTrace(ctx, f.Trace)
		}
		status, payload := s.h.ServeFrame(hctx, f.Op(), f.ID, f.Payload)
		// The writer drains out until every handler is done, so this
		// send cannot block forever even if the conn is already dead.
		out <- outFrame{kind: respBit | uint8(status), id: f.ID, payload: payload, enq: time.Now()}
	}
}

// connWriter multiplexes response frames onto the connection. Frames are
// appended to one buffered writer and flushed only when the queue goes
// idle (or the buffer fills), so a burst of pipelined completions —
// e.g. a decode-engine batch finishing in microseconds — leaves in one
// syscall instead of one per response.
func (s *Server) connWriter(nc net.Conn, out <-chan outFrame, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(nc, 1<<16)
	var scratch []byte
	dead := false
	for f := range out {
		for {
			if !dead {
				mWriteDwell.Observe(time.Since(f.enq))
				scratch = scratch[:0]
				b, err := AppendFrame(scratch, f.kind, f.id, obs.TraceContext{}, f.payload)
				if err != nil {
					// Handler payload over MaxPayload: report it in-band so the
					// client is not left waiting on the id.
					b, _ = AppendFrame(scratch, respBit|uint8(StatusInternal), f.id, obs.TraceContext{}, nil)
				}
				scratch = b
				if _, werr := bw.Write(b); werr != nil {
					dead = true // keep draining so handlers never block
				} else {
					s.ctr.noteFrameOut(len(f.payload))
				}
			}
			// Coalesce: keep encoding while more responses are ready. The
			// queue looking empty right after a frame is usually scheduling,
			// not idleness (handler completions ready this goroutine
			// instantly); one yield lets them land before the flush syscall
			// is paid.
			nf, ok, idle := recvFrame(out)
			if idle {
				runtime.Gosched()
				nf, ok, idle = recvFrame(out)
			}
			if idle {
				break
			}
			if !ok {
				if !dead {
					bw.Flush()
					s.ctr.flushes.Add(1)
				}
				return
			}
			f = nf
		}
		if !dead {
			if err := bw.Flush(); err != nil {
				dead = true
			} else {
				s.ctr.flushes.Add(1)
			}
		}
	}
}

// recvFrame is a nonblocking receive: (frame, channel-open, queue-idle).
func recvFrame(out <-chan outFrame) (outFrame, bool, bool) {
	select {
	case f, ok := <-out:
		return f, ok, false
	default:
		return outFrame{}, true, true
	}
}
