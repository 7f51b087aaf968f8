package flowd

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"planarflow/internal/store"
)

func testSpec(seed int64) store.GraphSpec {
	return store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: seed, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
}

// TestSnapshotEndpointDisabled: without -snapshot-dir the endpoint is a
// clean 400, not a 500.
func TestSnapshotEndpointDisabled(t *testing.T) {
	c, _ := newTestDaemon(t, store.Config{})
	_, err := c.snapshot(context.Background(), "")
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("got %v, want status 400", err)
	}
}

// TestSnapshotEndpointAndRestart drives the full daemon lifecycle over
// the wire: register + warm, query, snapshot, kill the daemon, boot a
// fresh one over the same snapshot directory, warm-restore, and verify
// the restored daemon serves every query family bit-identically (payload,
// witnesses and rounds split) with zero rebuilds and its counters visible
// on /statsz.
func TestSnapshotEndpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{SpillDir: dir}
	ctx := context.Background()

	c1, _ := newTestDaemon(t, cfg)
	reg, err := c1.RegisterWarm(ctx, "g", testSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	// Every family, asked twice: the second answer is fully warm
	// (Build == 0), the state the restored daemon must reproduce.
	checks := FamilyChecks("g", reg.N, reg.Faces)
	want := make([]string, len(checks))
	for i, q := range checks {
		if _, err := c1.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
		resp, err := c1.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
		want[i] = RestartKey(resp)
	}
	// Unknown graph errors; known graph writes one snapshot.
	if _, err := c1.snapshot(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Fatalf("got %v, want status 404", err)
	}
	snap, err := c1.snapshot(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Written != 1 {
		t.Fatalf("written = %d, want 1", snap.Written)
	}
	st1, err := c1.stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Store.SnapshotWrites != 1 {
		t.Fatalf("statsz snapshot_writes = %d, want 1", st1.Store.SnapshotWrites)
	}

	// "Restart": fresh store, same spill dir, same spec, warm restore.
	c2, st := newTestDaemon(t, cfg)
	if _, err := st.RegisterSpec("g", testSpec(42)); err != nil {
		t.Fatal(err)
	}
	ok, err := st.TryRestore("g")
	if err != nil || !ok {
		t.Fatalf("TryRestore = %v, %v", ok, err)
	}
	for i, q := range checks {
		resp, err := c2.Query(ctx, q)
		if err != nil {
			t.Fatalf("restored %s: %v", q.Op, err)
		}
		if got := RestartKey(resp); got != want[i] || !resp.Hit {
			t.Fatalf("restored %s diverged (hit=%v):\n  got  %s\n  want %s", q.Op, resp.Hit, got, want[i])
		}
	}
	st2, err := c2.stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Store.SnapshotRestores != 1 || st2.Store.Builds != 0 {
		t.Fatalf("restored daemon: restores=%d builds=%d, want 1/0",
			st2.Store.SnapshotRestores, st2.Store.Builds)
	}
	// Per-bundle last-access rides on /statsz (observability satellite).
	for _, pg := range st2.Store.PerGraph {
		if pg.ID == "g" && pg.LastAccessUnixMS == 0 {
			t.Fatal("last_access_unix_ms missing from /statsz")
		}
	}
}

// TestSnapshotRequestStrictDecode: the endpoint rejects unknown fields
// like every other decoder on this wire.
func TestSnapshotRequestStrictDecode(t *testing.T) {
	st := store.New(store.Config{SpillDir: t.TempDir()})
	srv := httptest.NewServer(NewServerWith(st, ServerOptions{}))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/snapshot", "application/json",
		strings.NewReader(`{"graph": "g", "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestClientHonorsContext pins the client-side cancellation satellite:
// an in-flight request aborts promptly when its context is canceled —
// for queries, registration, stats and snapshot alike.
func TestClientHonorsContext(t *testing.T) {
	release := make(chan struct{})
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	// LIFO: the handlers must unblock before Close waits on them.
	defer blocked.Close()
	defer close(release)
	c := NewClient(blocked.URL)

	calls := map[string]func(ctx context.Context) error{
		"query": func(ctx context.Context) error {
			_, err := c.Query(ctx, QueryRequest{Graph: "g", Op: "dist"})
			return err
		},
		"batch": func(ctx context.Context) error {
			_, err := c.QueryBatch(ctx, BatchRequest{Graph: "g", Queries: []BatchQuery{{Op: "girth"}}})
			return err
		},
		"register": func(ctx context.Context) error {
			_, err := c.Register(ctx, "g", testSpec(1))
			return err
		},
		"stats": func(ctx context.Context) error {
			_, err := c.stats(ctx)
			return err
		},
		"snapshot": func(ctx context.Context) error {
			_, err := c.snapshot(ctx, "")
			return err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- call(ctx) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("blocked call returned nil despite canceled context")
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("got %v, want context.DeadlineExceeded in the chain", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("client ignored context cancellation")
			}
		})
	}
}

// TestFamilyChecksCoverOps pins the drift guard: FamilyChecks exercises
// every op the daemon serves, exactly once each.
func TestFamilyChecksCoverOps(t *testing.T) {
	covered := map[string]int{}
	for _, q := range FamilyChecks("g", 36, 26) {
		covered[q.Op]++
		if q.Graph != "g" {
			t.Fatalf("%s targets graph %q", q.Op, q.Graph)
		}
	}
	for _, op := range Ops {
		if covered[op] != 1 {
			t.Fatalf("op %q covered %d times by FamilyChecks, want 1", op, covered[op])
		}
	}
	if len(covered) != len(Ops) {
		t.Fatalf("%d ops covered, daemon serves %d", len(covered), len(Ops))
	}
}
