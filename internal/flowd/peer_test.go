package flowd

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"planarflow/internal/store"
)

func peerSpec() store.GraphSpec {
	return store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 3, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
}

// newPeerDaemon is newTestDaemon plus the raw base URL, which the
// restore ladder needs as a peer address.
func newPeerDaemon(t *testing.T, cfg store.Config) (*Client, *store.Store, string) {
	t.Helper()
	st := store.New(cfg)
	srv := httptest.NewServer(NewServerWith(st, ServerOptions{}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), st, srv.URL
}

func TestPeerSnapshotFetchAndRestore(t *testing.T) {
	ctx := context.Background()
	ca, _, baseA := newPeerDaemon(t, store.Config{})
	cb, stb, _ := newPeerDaemon(t, store.Config{})

	if _, err := ca.RegisterWarm(ctx, "g", peerSpec()); err != nil {
		t.Fatal(err)
	}
	want, err := ca.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatal(err)
	}

	// FetchSnapshot returns verified PFSNAP bytes with the right id.
	snap, err := ca.FetchSnapshot(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	if _, err := ca.FetchSnapshot(ctx, "ghost"); !IsNotFound(err) {
		t.Fatalf("unknown graph fetch: %v", err)
	}

	// Restore on B via the peer rung: the bundle ships over, no build.
	if _, err := cb.Register(ctx, "g", peerSpec()); err != nil {
		t.Fatal(err)
	}
	resp, err := cb.Restore(ctx, "g", []string{baseA})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Restored || resp.Source != "peer" || resp.Peer != baseA {
		t.Fatalf("restore: %+v", resp)
	}
	st := stb.Snapshot()
	if st.PeerRestores != 1 || st.Builds != 0 {
		t.Fatalf("peer restore accounting: %+v", st)
	}
	got, err := cb.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || !got.Hit {
		t.Fatalf("restored answer %+v != %+v", got, want)
	}
}

// TestPeerRestoreTruncatedStreamFallsBack serves a snapshot stream cut
// mid-transfer: the restore ladder must reject the rung — no partial
// install, PeerRestores stays zero — and fall through to the next rung
// (a good peer, or cold rebuild), with answers unchanged either way.
func TestPeerRestoreTruncatedStreamFallsBack(t *testing.T) {
	ctx := context.Background()
	ca, _, baseA := newPeerDaemon(t, store.Config{})
	if _, err := ca.RegisterWarm(ctx, "g", peerSpec()); err != nil {
		t.Fatal(err)
	}
	want, err := ca.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ca.FetchSnapshot(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}

	// A peer that 200s but cuts the stream partway through the data.
	full := snap
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(full[:len(full)/2])
	}))
	t.Cleanup(bad.Close)

	// Truncated peer only: every rung misses, the graph stays cold, and
	// nothing partial is installed.
	cb, stb, _ := newPeerDaemon(t, store.Config{})
	if _, err := cb.Register(ctx, "g", peerSpec()); err != nil {
		t.Fatal(err)
	}
	resp, err := cb.Restore(ctx, "g", []string{bad.URL})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Restored || resp.Source != "none" {
		t.Fatalf("truncated stream restored: %+v", resp)
	}
	st := stb.Snapshot()
	if st.PeerRestores != 0 || st.Resident != 0 {
		t.Fatalf("partial restore visible: %+v", st)
	}
	// The ladder's floor: the next query rebuilds cold and still agrees.
	got, err := cb.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Hit {
		t.Fatalf("cold fallback answer %+v != %+v", got, want)
	}

	// Truncated peer first, good peer second: the ladder skips the bad
	// rung and restores from the good one.
	cc, stc, _ := newPeerDaemon(t, store.Config{})
	if _, err := cc.Register(ctx, "g", peerSpec()); err != nil {
		t.Fatal(err)
	}
	resp, err = cc.Restore(ctx, "g", []string{bad.URL, baseA})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Restored || resp.Source != "peer" || resp.Peer != baseA {
		t.Fatalf("good-peer rung not taken: %+v", resp)
	}
	if st := stc.Snapshot(); st.PeerRestores != 1 || st.Builds != 0 {
		t.Fatalf("accounting after skip: %+v", st)
	}
}

// TestPeerRestoreRejectsBadBodies: a peer that 200s with a damaged or
// foreign PFSNAP body costs one rung. The snapshot envelope alone rejects
// every such body — InstallSnapshot counts it in SnapshotErrors — and the
// ladder restores from the next peer without a build.
func TestPeerRestoreRejectsBadBodies(t *testing.T) {
	ctx := context.Background()
	ca, sta, baseA := newPeerDaemon(t, store.Config{})
	if _, err := ca.RegisterWarm(ctx, "g", peerSpec()); err != nil {
		t.Fatal(err)
	}
	snap, err := ca.FetchSnapshot(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	// The fetched bytes are the store's snapshot bytes, byte for byte.
	var want bytes.Buffer
	if ok, err := sta.SnapshotTo("g", &want); !ok || err != nil {
		t.Fatalf("SnapshotTo: %v, %v", ok, err)
	}
	if !bytes.Equal(snap, want.Bytes()) {
		t.Fatalf("fetched %d bytes differ from SnapshotTo's %d", len(snap), want.Len())
	}
	// A valid snapshot of another graph registered under the same id.
	other := peerSpec()
	other.Seed++
	co, _, _ := newPeerDaemon(t, store.Config{})
	if _, err := co.RegisterWarm(ctx, "g", other); err != nil {
		t.Fatal(err)
	}
	foreign, err := co.FetchSnapshot(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := bytes.Clone(snap)
		b[i] ^= 0x01
		return b
	}
	const fingerprintByte = 6 + 1 + 3 // magic, version, then inside the u64 fingerprint
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"flipped-mid", flip(len(snap) / 2)},
		{"flipped-fingerprint", flip(fingerprintByte)},
		{"flipped-last", flip(len(snap) - 1)},
		{"other-graph", foreign},
		{"first-half", snap[:len(snap)/2]},
		{"empty", nil},
		{"trailing-byte", append(bytes.Clone(snap), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Write(tc.body)
			}))
			defer bad.Close()
			cb, stb, _ := newPeerDaemon(t, store.Config{})
			if _, err := cb.Register(ctx, "g", peerSpec()); err != nil {
				t.Fatal(err)
			}
			resp, err := cb.Restore(ctx, "g", []string{bad.URL, baseA})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Restored || resp.Source != "peer" || resp.Peer != baseA {
				t.Fatalf("good-peer rung not taken: %+v", resp)
			}
			if st := stb.Snapshot(); st.PeerRestores != 1 || st.Builds != 0 || st.SnapshotErrors != 1 {
				t.Fatalf("accounting after a bad body: peer_restores %d, builds %d, snapshot_errors %d",
					st.PeerRestores, st.Builds, st.SnapshotErrors)
			}
		})
	}
}

// TestPeerRestoreDiskRung: with peers exhausted, the ladder falls back
// to the local disk tier.
func TestPeerRestoreDiskRung(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c, st, _ := newPeerDaemon(t, store.Config{SpillDir: dir})
	t.Cleanup(st.FlushSpills)
	if _, err := c.RegisterWarm(ctx, "g", peerSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.snapshot(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	st.FlushSpills()
	st.EvictAll()
	resp, err := c.Restore(ctx, "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Restored || resp.Source != "disk" {
		t.Fatalf("disk rung: %+v", resp)
	}
	// Restoring a resident graph is a no-op reported as such.
	resp, err = c.Restore(ctx, "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "resident" && (resp.Restored || resp.Source != "none") {
		t.Fatalf("resident restore: %+v", resp)
	}
	// Unknown graphs surface the typed 404.
	if _, err := c.Restore(ctx, "ghost", nil); !IsNotFound(err) {
		t.Fatalf("unknown graph restore: %v", err)
	}
}

// TestGraphIDLength: an id one byte past store.MaxIDLen is refused at
// registration with a 400, so no registered graph is one a peer could not
// restore; an id of exactly MaxIDLen bytes answers over HTTP and over the
// wire, and peer-restores.
func TestGraphIDLength(t *testing.T) {
	ctx := context.Background()
	ca, _, addr, _ := newWireDaemon(t, store.Config{}, "")
	long := strings.Repeat("g", store.MaxIDLen+1)
	var ae *APIError
	if _, err := ca.Register(ctx, long, peerSpec()); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("%d-byte id: %v, want a 400", len(long), err)
	}

	id := long[1:]
	if _, err := ca.RegisterWarm(ctx, id, peerSpec()); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Graph: id, Op: "dist", U: 0, V: 35}
	want, err := ca.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wc := NewWireClient("tcp", addr, WireOptions{PoolSize: 1})
	defer wc.Close()
	if got, err := wc.Query(ctx, req); err != nil || got.Value != want.Value {
		t.Fatalf("wire answer %+v, %v; http %+v", got, err, want)
	}

	cb, stb, _ := newPeerDaemon(t, store.Config{})
	if _, err := cb.Register(ctx, id, peerSpec()); err != nil {
		t.Fatal(err)
	}
	resp, err := cb.Restore(ctx, id, []string{ca.base})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Restored || resp.Source != "peer" {
		t.Fatalf("restore of a %d-byte id: %+v", len(id), resp)
	}
	if st := stb.Snapshot(); st.PeerRestores != 1 || st.Builds != 0 {
		t.Fatalf("peer restore accounting: %+v", st)
	}
}
