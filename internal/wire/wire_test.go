package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planarflow/internal/obs"
)

// echoHandler answers every frame with its own payload. Payloads of the
// form "sleep:<dur>:<body>" park in the handler for dur first (or until
// ctx cancels), and "block:<body>" parks until release closes — the
// knobs the pipelining and cancellation tests turn.
type echoHandler struct {
	release chan struct{}
}

func (h *echoHandler) ServeFrame(ctx context.Context, op Op, id uint64, payload []byte) (Status, []byte) {
	if op == OpPing {
		return StatusOK, []byte("pong")
	}
	s := string(payload)
	if rest, ok := strings.CutPrefix(s, "sleep:"); ok {
		durStr, body, _ := strings.Cut(rest, ":")
		d, _ := time.ParseDuration(durStr)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return StatusCanceled, []byte("canceled")
		}
		return StatusOK, []byte(body)
	}
	if body, ok := strings.CutPrefix(s, "block:"); ok {
		select {
		case <-h.release:
		case <-ctx.Done():
			return StatusCanceled, []byte("canceled")
		}
		return StatusOK, []byte(body)
	}
	return StatusOK, payload
}

// Stats snapshots the server's transport counters.
func (s *Server) Stats() Stats { return s.ctr.Snapshot() }

// startServer serves h on an ephemeral loopback TCP listener.
func startServer(t *testing.T, h Handler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(h)
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func TestPoolEchoTCPAndUnix(t *testing.T) {
	h := &echoHandler{}
	_, addr := startServer(t, h)
	uds := filepath.Join(t.TempDir(), "wire.sock")
	uln, err := net.Listen("unix", uds)
	if err != nil {
		t.Fatal(err)
	}
	us := NewServer(h)
	go us.Serve(uln)
	t.Cleanup(func() { us.Close() })

	ctx := context.Background()
	for _, tc := range []struct{ network, target string }{{"tcp", addr}, {"unix", uds}} {
		p := NewPool(tc.network, tc.target, 2)
		if err := p.Ping(ctx); err != nil {
			t.Fatalf("%s: %v", tc.network, err)
		}
		status, payload, err := p.Do(ctx, OpQuery, []byte("hello"))
		if err != nil || status != StatusOK || string(payload) != "hello" {
			t.Fatalf("%s: echo = (%v, %q, %v)", tc.network, status, payload, err)
		}
		p.Close()
		if _, _, err := p.Do(ctx, OpQuery, []byte("x")); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("%s: after close err = %v, want ErrPoolClosed", tc.network, err)
		}
	}
}

// TestPipeliningOutOfOrder issues requests with inverted latencies over
// one connection: the first request sleeps longest, so responses must
// come back out of submission order and still land on the right waiters.
func TestPipeliningOutOfOrder(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	p := NewPool("tcp", addr, 1) // one conn: ordering pressure is maximal
	defer p.Close()
	ctx := context.Background()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sleep := time.Duration(n-i) * 20 * time.Millisecond
			want := "r" + strconv.Itoa(i)
			payload := fmt.Sprintf("sleep:%s:%s", sleep, want)
			status, resp, err := p.Do(ctx, OpQuery, []byte(payload))
			if err != nil || status != StatusOK || string(resp) != want {
				errs[i] = fmt.Errorf("req %d: (%v, %q, %v)", i, status, resp, err)
				return
			}
			order <- i
		}(i)
	}
	wg.Wait()
	close(order)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for i := range order {
		got = append(got, i)
	}
	if len(got) != n {
		t.Fatalf("completed %d of %d", len(got), n)
	}
	// With a 20ms latency ladder the completion order must be roughly the
	// reverse of submission; it being exactly ascending would mean the
	// transport serialized the requests.
	if got[0] == 0 && got[1] == 1 && got[2] == 2 {
		t.Fatalf("responses completed in submission order %v — no pipelining", got)
	}
	if p.Stats().FramesIn != int64(n) {
		t.Fatalf("frames_in = %d, want %d", p.Stats().FramesIn, n)
	}
}

// TestCancellationFailsExactlyThoseRequests pins the cancellation
// contract: with N requests in flight, canceling K of their contexts
// fails exactly those K with context.Canceled while the rest complete
// normally on the same connection.
func TestCancellationFailsExactlyThoseRequests(t *testing.T) {
	h := &echoHandler{release: make(chan struct{})}
	_, addr := startServer(t, h)
	p := NewPool("tcp", addr, 1)
	defer p.Close()

	const n, k = 6, 3
	cancelCtx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i < k {
				ctx = cancelCtx
			}
			started <- struct{}{}
			_, resp, err := p.Do(ctx, OpQuery, []byte("block:done"))
			if err == nil && string(resp) != "done" {
				err = fmt.Errorf("bad payload %q", resp)
			}
			errs[i] = err
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	time.Sleep(50 * time.Millisecond) // let all n block server-side
	cancel()
	time.Sleep(50 * time.Millisecond) // canceled waiters return, others still blocked
	close(h.release)
	wg.Wait()

	for i, err := range errs {
		if i < k {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("canceled req %d: err = %v, want context.Canceled", i, err)
			}
		} else if err != nil {
			t.Errorf("live req %d: err = %v, want success", i, err)
		}
	}

	// The connection survives cancellations: an immediate follow-up works.
	status, resp, err := p.Do(context.Background(), OpQuery, []byte("after"))
	if err != nil || status != StatusOK || string(resp) != "after" {
		t.Fatalf("post-cancel echo = (%v, %q, %v)", status, resp, err)
	}
	if got := p.Stats().ConnsTotal; got != 1 {
		t.Fatalf("conns_total = %d, want 1 (no redial after cancels)", got)
	}
}

// TestConnDeathFailsInFlightAndPoolRedials pins the failure contract: a
// dropped connection fails every in-flight request with ErrConnClosed
// (not a hang, not context.Canceled), and the pool replaces the dead
// connection on next use.
func TestConnDeathFailsInFlightAndPoolRedials(t *testing.T) {
	h := &echoHandler{release: make(chan struct{})}
	srv, addr := startServer(t, h)
	p := NewPool("tcp", addr, 1)
	defer p.Close()

	const n = 5
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = p.Do(context.Background(), OpQuery, []byte("block:x"))
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // all n in flight
	srv.Close()                       // kills the conn server-side mid-pipeline
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrConnClosed) {
			t.Errorf("in-flight req %d: err = %v, want ErrConnClosed", i, err)
		}
	}

	// Server returns on the same address; the pool's next use must dial a
	// fresh connection and succeed.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(&echoHandler{})
	go srv2.Serve(ln)
	defer srv2.Close()
	status, resp, err := p.Do(context.Background(), OpQuery, []byte("reborn"))
	if err != nil || status != StatusOK || string(resp) != "reborn" {
		t.Fatalf("post-death echo = (%v, %q, %v)", status, resp, err)
	}
	if got := p.Stats().ConnsTotal; got != 2 {
		t.Fatalf("conns_total = %d, want 2 (one redial)", got)
	}
}

// TestServerRejectsGarbageConn: a connection speaking not-the-protocol
// is dropped without taking the server down.
func TestServerRejectsGarbageConn(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	buf := make([]byte, 1)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server answered a garbage connection instead of dropping it")
	}
	nc.Close()

	// The listener is still alive for well-formed peers.
	p := NewPool("tcp", addr, 1)
	defer p.Close()
	if err := p.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWriteCoalescing: a pipelined burst reaches the server in far
// fewer flushes than frames, and the server's responses coalesce too.
func TestWriteCoalescing(t *testing.T) {
	srv, addr := startServer(t, &echoHandler{})
	p := NewPool("tcp", addr, 1)
	defer p.Close()
	ctx := context.Background()

	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.Do(ctx, OpQuery, []byte(strconv.Itoa(i)))
		}(i)
	}
	wg.Wait()
	cs, ss := p.Stats(), srv.Stats()
	if cs.FramesOut != n || ss.FramesIn != n || ss.FramesOut != n || cs.FramesIn != n {
		t.Fatalf("frame counts client=%+v server=%+v", cs, ss)
	}
	if cs.BytesOut == 0 || ss.BytesIn != cs.BytesOut {
		t.Fatalf("byte accounting client out=%d server in=%d", cs.BytesOut, ss.BytesIn)
	}
	// Not a tight bound (scheduling-dependent), but if every frame cost
	// its own flush the transport isn't coalescing at all.
	if cs.Flushes >= n || ss.Flushes >= n {
		t.Logf("weak coalescing: client flushes=%d server flushes=%d for %d frames", cs.Flushes, ss.Flushes, n)
	}
}

func TestCountersCoalesced(t *testing.T) {
	var c Counters
	c.AddCoalesced(1) // not a fold
	c.AddCoalesced(4)
	c.AddCoalesced(9)
	c.AddCoalesced(2)
	s := c.Snapshot()
	if s.CoalescedBatches != 3 || s.CoalescedQueries != 15 || s.CoalescedMax != 9 {
		t.Fatalf("coalesced counters %+v", s)
	}
}

// TestRetiredFramesRejected: the traceless version-1 layout and the two
// op numbers that never had a sender are protocol violations on both
// entry points, and a live server answers them by dropping the
// connection — no panic, no hang, and it keeps serving everyone else.
func TestRetiredFramesRejected(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"version-1", legacyV1Frame(uint8(OpQuery), 1, []byte("old peer")), ErrVersion},
		{"op-2", mustFrame(t, 2, 1, []byte(`{"graph":"g","queries":[{"op":"girth"}]}`)), ErrBadKind},
		{"op-6", mustFrame(t, 6, 1, []byte("g")), ErrBadKind},
	}
	for _, c := range cases {
		if _, _, err := DecodeFrame(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: DecodeFrame err = %v, want %v", c.name, err, c.want)
		}
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(c.data))); !errors.Is(err, c.want) {
			t.Errorf("%s: ReadFrame err = %v, want %v", c.name, err, c.want)
		}

		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(5 * time.Second)) // the no-hang watchdog
		br := bufio.NewReader(nc)
		// A good frame first: the connection is live and the reply is ours.
		if _, err := nc.Write(mustFrame(t, uint8(OpPing), 7, nil)); err != nil {
			t.Fatal(err)
		}
		if f, err := ReadFrame(br); err != nil || f.ID != 7 || f.Status() != StatusOK {
			t.Fatalf("%s: ping before the bad frame = (%+v, %v)", c.name, f, err)
		}
		if _, err := nc.Write(c.data); err != nil {
			t.Fatal(err)
		}
		// EOF, or a reset if the close raced our bytes — anything but a
		// frame or the watchdog firing.
		if f, err := ReadFrame(br); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: after the bad frame the server sent (%+v, %v), want a closed connection", c.name, f, err)
		}
		nc.Close()
	}
	p := NewPool("tcp", addr, 1)
	defer p.Close()
	if err := p.Ping(context.Background()); err != nil {
		t.Fatalf("server stopped serving after protocol violations: %v", err)
	}
}

// countingListener wraps every accepted connection so the test sees the
// bytes the socket actually carried, independent of the wire counters.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}

// TestByteCountersMatchSocket pins wire_bytes_{in,out}_total to the
// bytes on the socket, both directions, on both ends — for an untraced
// request and for a traced one, whose trace block the counters used to
// leave out.
func TestByteCountersMatchSocket(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	srv := NewServer(&echoHandler{})
	go srv.Serve(ln)
	defer srv.Close()
	p := NewPool("tcp", inner.Addr().String(), 1)
	defer p.Close()

	traced := obs.ContextWithTrace(context.Background(), obs.TraceContext{Hi: 1, Lo: 2, Parent: 3, Hop: 1})
	for _, ctx := range []context.Context{context.Background(), traced} {
		if status, _, err := p.Do(ctx, OpQueryB, []byte("seventeen bytes..")); err != nil || status != StatusOK {
			t.Fatalf("echo = (%v, %v)", status, err)
		}
	}
	// Every response is back, so every byte has crossed; Close waits for the
	// connection's writer, so the listener's tallies are final too.
	srv.Close()
	cs, ss := p.Stats(), srv.Stats()
	if read := ln.read.Load(); cs.BytesOut != read || ss.BytesIn != read {
		t.Errorf("requests: socket carried %d bytes, client counted %d out, server %d in", read, cs.BytesOut, ss.BytesIn)
	}
	if written := ln.written.Load(); ss.BytesOut != written || cs.BytesIn != written {
		t.Errorf("responses: socket carried %d bytes, server counted %d out, client %d in", written, ss.BytesOut, cs.BytesIn)
	}
}

// waitGoroutines polls until at most want goroutines run, or fails.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// servingGoroutines wraps echoHandler and records which goroutines ran
// ServeFrame, by the id runtime.Stack prints.
type servingGoroutines struct {
	echoHandler
	mu  sync.Mutex
	ids map[string]bool
}

func (h *servingGoroutines) ServeFrame(ctx context.Context, op Op, id uint64, payload []byte) (Status, []byte) {
	buf := make([]byte, 64)
	gid, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf, false)]), "goroutine "), " ")
	h.mu.Lock()
	h.ids[gid] = true
	h.mu.Unlock()
	return h.echoHandler.ServeFrame(ctx, op, id, payload)
}

func (h *servingGoroutines) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ids)
}

// TestConnWorkersPersist pins the handler workers' lifecycle: a stream
// of sequential frames on one connection is served by a handful of
// goroutines, not one per frame, and leaves the goroutine count where
// the first frame left it; a handler parked on one frame does not
// hold up a pipelined frame behind it (a second worker takes it); and
// after Close, or after a Shutdown drain, every goroutine the server and
// the pool started is gone.
func TestConnWorkersPersist(t *testing.T) {
	const slack = 3 // scheduling noise: a worker not yet parked when the next frame lands
	for _, stop := range []struct {
		name string
		fn   func(*Server) error
	}{
		{"Close", func(s *Server) error { return s.Close() }},
		{"Shutdown", func(s *Server) error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return s.Shutdown(ctx)
		}},
	} {
		t.Run(stop.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			h := &servingGoroutines{echoHandler: echoHandler{release: make(chan struct{})}, ids: map[string]bool{}}
			srv := NewServer(h)
			served := make(chan struct{})
			go func() {
				srv.Serve(ln)
				close(served)
			}()
			p := NewPool("tcp", ln.Addr().String(), 1)
			ctx := context.Background()
			echo := func(body string) {
				t.Helper()
				if status, resp, err := p.Do(ctx, OpQuery, []byte(body)); err != nil || status != StatusOK || string(resp) != body {
					t.Fatalf("echo %q = (%v, %q, %v)", body, status, resp, err)
				}
			}

			echo("0")
			first := runtime.NumGoroutine()
			for i := 1; i < 1000; i++ {
				echo(strconv.Itoa(i))
			}
			if g := runtime.NumGoroutine(); g > first+slack {
				t.Fatalf("1000 sequential frames left %d goroutines, %d after the first", g, first)
			}
			if n := h.count(); n > 1+slack {
				t.Fatalf("1000 sequential frames ran on %d handler goroutines", n)
			}

			blocked := make(chan error, 1)
			go func() {
				_, resp, err := p.Do(ctx, OpQuery, []byte("block:slow"))
				if err == nil && string(resp) != "slow" {
					err = fmt.Errorf("blocked frame answered %q", resp)
				}
				blocked <- err
			}()
			for srv.Stats().FramesIn < 1001 {
				time.Sleep(time.Millisecond)
			}
			fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			status, resp, err := p.Do(fctx, OpQuery, []byte("fast"))
			cancel()
			if err != nil || status != StatusOK || string(resp) != "fast" {
				t.Fatalf("frame behind a parked handler = (%v, %q, %v)", status, resp, err)
			}
			close(h.release)
			if err := <-blocked; err != nil {
				t.Fatal(err)
			}

			if err := stop.fn(srv); err != nil {
				t.Fatal(err)
			}
			<-served
			p.Close()
			waitGoroutines(t, base, "after "+stop.name)
		})
	}
}
