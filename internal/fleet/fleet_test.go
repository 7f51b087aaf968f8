package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

func testSpec(seed int64) store.GraphSpec {
	return store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: seed, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
}

// startFleet boots n replicas (spilling under t.TempDir()) and a fleet
// client over them, with probing disabled unless probe is set (tests
// drive aliveness explicitly to stay deterministic).
func startFleet(t *testing.T, n int, opt Options) ([]*Replica, *Client) {
	t.Helper()
	dir := t.TempDir()
	reps := make([]*Replica, n)
	members := make([]Member, n)
	for i := range reps {
		r, err := StartReplica(ReplicaConfig{
			Name:  fmt.Sprintf("r%d", i),
			Store: store.Config{SpillDir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		members[i] = r.Member()
		t.Cleanup(r.Stop)
	}
	c, err := New(members, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return reps, c
}

func replicaByName(reps []*Replica, name string) *Replica {
	for _, r := range reps {
		if r.Name == name {
			return r
		}
	}
	return nil
}

func TestFleetRoutesToOwner(t *testing.T) {
	reps, c := startFleet(t, 3, Options{ProbeInterval: -1})
	ctx := context.Background()
	const graphs = 6
	for i := 0; i < graphs; i++ {
		id := fmt.Sprintf("g%d", i)
		if err := c.Register(ctx, id, testSpec(int64(i+1))); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	for i := 0; i < graphs; i++ {
		id := fmt.Sprintf("g%d", i)
		owner, ok := c.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		resp, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 35})
		if err != nil {
			t.Fatalf("query %s: %v", id, err)
		}
		if !resp.Hit {
			t.Fatalf("%s not resident on owner %s after warm register", id, owner)
		}
		// Only the owner holds the graph before any standby sync.
		st := replicaByName(reps, owner).Store.Snapshot()
		if st.Graphs == 0 {
			t.Fatalf("owner %s of %s reports zero graphs", owner, id)
		}
	}
	// Registration must land every graph on exactly one replica.
	total := 0
	for _, r := range reps {
		total += r.Store.Snapshot().Graphs
	}
	if total != graphs {
		t.Fatalf("fleet holds %d registrations for %d graphs", total, graphs)
	}
}

// warmKeys asks every check twice through query and returns the second
// answers' RestartKeys: the second answer is fully warm (Build == 0), the
// state a peer-restored standby has to match bit for bit.
func warmKeys(t *testing.T, who string, checks []flowd.QueryRequest,
	query func(context.Context, flowd.QueryRequest) (*flowd.QueryResponse, error)) []string {
	t.Helper()
	ctx := context.Background()
	keys := make([]string, len(checks))
	for i, q := range checks {
		if _, err := query(ctx, q); err != nil {
			t.Fatalf("%s %s: %v", who, q.Op, err)
		}
		resp, err := query(ctx, q)
		if err != nil {
			t.Fatalf("%s %s: %v", who, q.Op, err)
		}
		keys[i] = flowd.RestartKey(resp)
	}
	return keys
}

// singleNodeKeys serves spec from one plain flowd daemon (no fleet, no
// restore) and returns one query per family with its warm RestartKey — the
// ground truth a fleet must reproduce, rounds included.
func singleNodeKeys(t *testing.T, id string, spec store.GraphSpec) ([]flowd.QueryRequest, []string) {
	t.Helper()
	hsrv := httptest.NewServer(flowd.NewServerWith(store.New(store.Config{}), flowd.ServerOptions{}))
	defer hsrv.Close()
	cl := flowd.NewClient(hsrv.URL)
	reg, err := cl.Register(context.Background(), id, spec)
	if err != nil {
		t.Fatal(err)
	}
	checks := flowd.FamilyChecks(id, reg.N, reg.Faces)
	return checks, warmKeys(t, "single node", checks, cl.Query)
}

// TestFleetFailoverBitIdentical is the kill-owner scenario: the graph is
// placed on its ring owner, every family answered there, the bundle
// synced to the standby, and the owner hard-killed. All 11 families must
// answer through the failover with the RestartKey (value, dist vector,
// cut edges, neg-cycle bit, iterations, rounds split) a single node gives
// — served from the standby's peer-restored bundle, with zero rebuilds.
func TestFleetFailoverBitIdentical(t *testing.T) {
	reps, c := startFleet(t, 3, Options{ProbeInterval: -1})
	ctx := context.Background()
	const id = "failover-graph"
	spec := testSpec(7)
	checks, want := singleNodeKeys(t, id, spec)
	if err := c.Register(ctx, id, spec); err != nil {
		t.Fatal(err)
	}

	// Healthy fleet: same keys as the single node.
	for i, got := range warmKeys(t, "pre-kill", checks, c.Query) {
		if got != want[i] {
			t.Fatalf("pre-kill %s diverged from a single node:\n  got  %s\n  want %s", checks[i].Op, got, want[i])
		}
	}

	// Replicate to the standby, then hard-kill the owner.
	if n, err := c.SyncStandby(ctx); err != nil || n == 0 {
		t.Fatalf("standby sync: n=%d err=%v", n, err)
	}
	owner, _ := c.Owner(id)
	chain := c.Ring().Successors(id, 2)
	if len(chain) != 2 || chain[0] != owner {
		t.Fatalf("successor chain %v (owner %s)", chain, owner)
	}
	standby := chain[1]
	sb := replicaByName(reps, standby)
	st := sb.Store.Snapshot()
	if st.PeerRestores == 0 {
		t.Fatalf("standby %s has no peer restores after sync: %+v", standby, st)
	}
	preBuilds := st.Builds
	replicaByName(reps, owner).Stop()

	// Four callers hit the dead owner at once, as a serving fleet's
	// clients would: the eject must be idempotent and every caller's every
	// family must still come back bit-identical.
	epochBefore := c.Ring().Epoch()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range checks {
				resp, err := c.Query(ctx, q)
				if err != nil {
					t.Errorf("caller %d post-kill %s: %v", w, q.Op, err)
					return
				}
				if got := flowd.RestartKey(resp); got != want[i] {
					t.Errorf("caller %d post-kill %s diverged:\n  got  %s\n  want %s", w, q.Op, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got, _ := c.Owner(id); got != standby {
		t.Fatalf("post-kill owner %s, want standby %s", got, standby)
	}
	if c.Ring().Epoch() == epochBefore {
		t.Fatal("epoch did not advance on eject")
	}
	// The standby answered from its peer-restored bundle: no new builds.
	if got := sb.Store.Snapshot().Builds; got != preBuilds {
		t.Fatalf("standby rebuilt after failover: builds %d -> %d", preBuilds, got)
	}
	if s := c.Stats(); s.Ejects == 0 || s.Failovers == 0 {
		t.Fatalf("stats missed the failover: %+v", s)
	}
}

// TestFleetAdoptPeerRestoreOneTrace is the adopt scenario: the client
// never ran a standby sync, so when the owner dies the failover target
// has never seen the graph, while a bystander replica further along the
// chain holds a warm copy. The first post-kill query must eject the
// owner, fail over, adopt the graph on the target and restore its bundle
// from the bystander — bytes shipped, nothing rebuilt — and the whole
// story must be attributable: the journal's eject, adopt and peer-restore
// events share one trace id, and that trace stitches across the client's
// spans and the replicas' into at least two hops.
func TestFleetAdoptPeerRestoreOneTrace(t *testing.T) {
	reps, c := startFleet(t, 3, Options{ProbeInterval: -1})
	ctx := context.Background()
	const id = "adopt-traced"
	spec := testSpec(23)
	chain := c.Ring().Successors(id, 3)
	if len(chain) != 3 {
		t.Fatalf("successor chain %v, want 3 distinct members", chain)
	}
	owner, adopter, bystander := chain[0], replicaByName(reps, chain[1]), replicaByName(reps, chain[2])

	if err := c.Register(ctx, id, spec); err != nil {
		t.Fatal(err)
	}
	query := flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 35}
	want, err := c.Query(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flowd.NewClient(bystander.Member().HTTP).RegisterWarm(ctx, id, spec); err != nil {
		t.Fatalf("bystander warm: %v", err)
	}
	if st := adopter.Store.Snapshot(); st.Graphs != 0 {
		t.Fatalf("adopter %s already holds a graph before the kill: %+v", adopter.Name, st)
	}
	replicaByName(reps, owner).Stop()

	got, err := c.Query(ctx, query)
	if err != nil {
		t.Fatalf("post-kill query: %v", err)
	}
	if g, w := flowd.RestartKey(got), flowd.RestartKey(want); g != w {
		t.Fatalf("adopted answer diverged:\n  got  %s\n  want %s", g, w)
	}
	if o, _ := c.Owner(id); o != adopter.Name {
		t.Fatalf("post-kill owner %s, want %s", o, adopter.Name)
	}
	if s := c.Stats(); s.Ejects == 0 || s.Failovers == 0 || s.Adoptions == 0 {
		t.Fatalf("stats missed the eject/failover/adopt: %+v", s)
	}
	if st := adopter.Store.Snapshot(); st.PeerRestores != 1 || st.Builds != 0 {
		t.Fatalf("adopter restored %d bundle(s) from peers and built %d substrate(s), want 1 and 0",
			st.PeerRestores, st.Builds)
	}

	// The journal names the trace: newest-first, so the post-kill restore.
	events := c.Journal().Recent()
	traceID := ""
	for _, e := range events {
		if e.Type == obs.EventPeerRestore && e.Graph == id {
			traceID = e.TraceID
			break
		}
	}
	if traceID == "" {
		t.Fatalf("journal holds no peer-restore event for %q: %+v", id, events)
	}
	seen := map[obs.EventType]bool{}
	for _, e := range events {
		if e.TraceID == traceID {
			seen[e.Type] = true
		}
	}
	if !seen[obs.EventEject] || !seen[obs.EventAdopt] {
		t.Fatalf("journal events of trace %s incomplete: %v", traceID, seen)
	}

	rings := [][]obs.SpanView{c.Tracer().Recent(), c.Tracer().Slow()}
	for _, r := range reps {
		rings = append(rings, r.Srv.Tracer().Recent(), r.Srv.Tracer().Slow())
	}
	var stitched *obs.TraceView
	for _, tv := range obs.Stitch(rings...) {
		if tv.TraceID == traceID {
			stitched = &tv
			break
		}
	}
	if stitched == nil {
		t.Fatalf("trace %s did not stitch across the fleet", traceID)
	}
	if stitched.Hops < 2 {
		t.Fatalf("trace %s spans %d hop(s), want >= 2 (client -> adopter -> source peer): %+v",
			traceID, stitched.Hops, stitched.Spans)
	}
}

func TestFleetAdoptWithoutStandbySync(t *testing.T) {
	reps, c := startFleet(t, 3, Options{ProbeInterval: -1})
	ctx := context.Background()
	const id = "adopt-graph"
	if err := c.Register(ctx, id, testSpec(11)); err != nil {
		t.Fatal(err)
	}
	want, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the owner with NO standby sync: the successor has never seen
	// the graph. The adopt path must register + restore on the fly. The
	// owner is dead, so the peer rung misses and the ladder falls through
	// to a shared-spill-root disk restore or a cold rebuild — either way
	// the answer must match.
	owner, _ := c.Owner(id)
	replicaByName(reps, owner).Stop()
	got, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatalf("post-kill query: %v", err)
	}
	if got.Value != want.Value {
		t.Fatalf("adopted answer %d != %d", got.Value, want.Value)
	}
	if s := c.Stats(); s.Adoptions == 0 {
		t.Fatalf("adopt path not taken: %+v", s)
	}
}

func TestFleetProbeRecovery(t *testing.T) {
	_, c := startFleet(t, 2, Options{ProbeInterval: 10 * time.Millisecond})
	// Eject a live member by hand: the probe must bring it back.
	name := c.Ring().Members()[0]
	c.eject(name, c.rootSpan(context.Background(), "test", ""))
	if c.Ring().Alive(name) {
		t.Fatal("eject did not mark dead")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Ring().Alive(name) {
		if time.Now().After(deadline) {
			t.Fatal("probe never recovered the member")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := c.Stats(); s.Recoveries == 0 {
		t.Fatalf("recovery not counted: %+v", s)
	}
}

func TestFleetAllDead(t *testing.T) {
	reps, c := startFleet(t, 2, Options{ProbeInterval: -1})
	ctx := context.Background()
	if err := c.Register(ctx, "g", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		r.Stop()
	}
	_, err := c.Query(ctx, flowd.QueryRequest{Graph: "g", Op: "dist", U: 0, V: 35})
	if err == nil {
		t.Fatal("query succeeded against a dead fleet")
	}
}

func TestReplicaDrainFlushesResident(t *testing.T) {
	dir := t.TempDir()
	r, err := StartReplica(ReplicaConfig{Name: "solo", Store: store.Config{SpillDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := flowd.NewClient(r.Member().HTTP)
	if _, err := cl.RegisterWarm(ctx, "g", testSpec(5)); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := r.Store.Snapshot()
	if st.SnapshotWrites == 0 {
		t.Fatalf("drain wrote no snapshots: %+v", st)
	}
	// The HTTP plane must be down after drain.
	if _, err := cl.Health(ctx); err == nil {
		t.Fatal("healthz answered after drain")
	}
}
