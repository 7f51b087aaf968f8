package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"planarflow/internal/cmdtest"
	"planarflow/internal/flowd"
)

// flowdProc is one running flowd binary and the stdout it has printed.
type flowdProc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	mu     sync.Mutex
	stdout strings.Builder
	done   chan struct{} // closed once stdout reaches EOF
}

// startFlowd runs bin with args and returns once it prints its
// "flowd: serving on <addr>" line, with that address.
func startFlowd(t *testing.T, bin string, args ...string) (*flowdProc, string) {
	t.Helper()
	p := &flowdProc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() })
	serving := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stdout.WriteString(line + "\n")
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "flowd: serving on "); ok {
				serving <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr := <-serving:
		return p, addr
	case <-p.done:
		p.cmd.Wait()
		t.Fatalf("flowd exited before serving:\nstdout:\n%s\nstderr:\n%s", p.output(), p.stderr.String())
	case <-time.After(60 * time.Second):
		t.Fatalf("flowd did not start serving in 60s:\nstdout:\n%s", p.output())
	}
	return nil, ""
}

func (p *flowdProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stdout.String()
}

// stop sends SIGTERM, waits for the drain to finish and the process to
// exit cleanly, and returns everything it printed to stdout.
func (p *flowdProc) stop(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("flowd did not exit within 60s of SIGTERM:\nstdout:\n%s", p.output())
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("flowd exit: %v\nstderr:\n%s", err, p.stderr.String())
	}
	return p.output()
}

// TestBootServeDrainRestore runs the built daemon the way an operator
// does: boot with one demo graph and a disk tier, answer every family
// over HTTP, drain the resident bundle to disk on SIGTERM, then boot
// again on the same directory and answer every family from the
// warm-restored bundle — bit-identical, a store hit, nothing rebuilt.
// It builds a binary rather than `go run` so the signal reaches flowd.
func TestBootServeDrainRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the flowd binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "flowd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-addr", "127.0.0.1:0", "-demo", "1", "-snapshot-dir", filepath.Join(dir, "snap")}
	g, err := demoSpec(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	checks := flowd.FamilyChecks("demo0", g.N(), g.NumFaces())
	ctx := context.Background()

	p, addr := startFlowd(t, bin, args...)
	c := flowd.NewClient("http://" + addr)
	want := make([]string, len(checks))
	for i, q := range checks {
		// The second answer is fully warm (Build == 0), the state the
		// restored daemon must reproduce.
		for pass := 0; pass < 2; pass++ {
			resp, err := c.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", q.Op, err)
			}
			want[i] = flowd.RestartKey(resp)
		}
	}
	cmdtest.ExpectMarkers(t, p.stop(t), "drained 1 resident bundle(s)", "flowd: shut down")

	p, addr = startFlowd(t, bin, args...)
	cmdtest.ExpectMarkers(t, p.output(), "warm-restored 1 graph(s)")
	c = flowd.NewClient("http://" + addr)
	for i, q := range checks {
		resp, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("restored %s: %v", q.Op, err)
		}
		if got := flowd.RestartKey(resp); got != want[i] || !resp.Hit {
			t.Fatalf("restored %s diverged (hit=%v):\n  got  %s\n  want %s", q.Op, resp.Hit, got, want[i])
		}
	}
	resp, err := http.Get("http://" + addr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st flowd.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.SnapshotRestores < 1 || st.Store.Builds != 0 {
		t.Fatalf("restored daemon: snapshot_restores=%d builds=%d, want >= 1 and 0", st.Store.SnapshotRestores, st.Store.Builds)
	}
	cmdtest.ExpectMarkers(t, p.stop(t), "flowd: shut down")
}
