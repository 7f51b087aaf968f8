package wire

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDialFailureIsUnavailable(t *testing.T) {
	p := NewPool("tcp", "127.0.0.1:1", 1) // reserved port: nothing listens
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _, err := p.Do(ctx, OpQuery, []byte("x"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dial failure not typed Unavailable: %v", err)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	h := &echoHandler{release: make(chan struct{})}
	srv, addr := startServer(t, h)
	p := NewPool("tcp", addr, 1)
	defer p.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	resCh := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		st, body, err := p.Do(ctx, OpQuery, []byte("block:drained"))
		if err != nil {
			errCh <- err
			return
		}
		if st != StatusOK {
			errCh <- errors.New("status " + st.String())
			return
		}
		resCh <- body
	}()

	// Wait until the request is parked in the handler.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().FramesIn < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	time.Sleep(20 * time.Millisecond) // shutdown is now waiting on the handler
	close(h.release)                  // let the in-flight request finish

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("in-flight request lost during drain: %v", err)
	case body := <-resCh:
		if !bytes.Equal(body, []byte("drained")) {
			t.Fatalf("drained response %q", body)
		}
	}

	// New connections are refused after drain.
	p2 := NewPool("tcp", addr, 1)
	defer p2.Close()
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, _, err := p2.Do(dctx, OpQuery, []byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-shutdown dial: %v", err)
	}
}

// TestShutdownTimeoutFallsBackToClose: a handler that never finishes
// must not wedge Shutdown — the ctx deadline forces the abrupt path.
func TestShutdownTimeoutFallsBackToClose(t *testing.T) {
	h := &echoHandler{release: make(chan struct{})}
	defer close(h.release)
	srv, addr := startServer(t, h)
	p := NewPool("tcp", addr, 1)
	defer p.Close()
	ctx := context.Background()

	go p.Do(ctx, OpQuery, []byte("block:never"))
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().FramesIn < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck shutdown returned %v, want deadline", err)
	}
}
