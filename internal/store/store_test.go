package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"planarflow"
)

func gridSpec(seed int64) GraphSpec {
	return GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: seed, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
}

// dist answers one dist query on pg through Do, keeping the context pg is
// bound to (With binds it to the request's).
func dist(pg *planarflow.PreparedGraph, u, v int) (int64, error) {
	a, err := pg.Do(nil, planarflow.DistQuery(u, v))
	if err != nil {
		return 0, err
	}
	return a.Value, nil
}

// distFootprint measures the accounted footprint of one grid's bundle
// after a dist query, so tests can size budgets in units of "one bundle".
func distFootprint(t testing.TB) int64 {
	t.Helper()
	g, err := gridSpec(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist(p, 0, g.N()-1); err != nil {
		t.Fatal(err)
	}
	b := p.Stats().Bytes
	if b <= 0 {
		t.Fatalf("footprint %d, want > 0", b)
	}
	return b
}

func TestRegisterErrors(t *testing.T) {
	s := New(Config{})
	if _, err := s.RegisterSpec("a", gridSpec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterSpec("a", gridSpec(2)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate register: %v", err)
	}
	if err := s.Register("", planarflow.GridGraph(3, 3)); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := s.Register("b", nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	// Ids are 1..MaxIDLen bytes on both registration paths.
	long := strings.Repeat("x", MaxIDLen+1)
	if err := s.Register(long, planarflow.GridGraph(3, 3)); !errors.Is(err, ErrBadID) {
		t.Fatalf("%d-byte id: %v, want ErrBadID", len(long), err)
	}
	if _, err := s.RegisterSpec(long, gridSpec(3)); !errors.Is(err, ErrBadID) {
		t.Fatalf("%d-byte id via spec: %v, want ErrBadID", len(long), err)
	}
	if err := s.Register(long[1:], planarflow.GridGraph(3, 3)); err != nil {
		t.Fatalf("%d-byte id: %v", MaxIDLen, err)
	}
	err := s.With(context.Background(), "nope", func(*planarflow.PreparedGraph, bool) error { return nil })
	if !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
	if _, err := s.RegisterSpec("bad", GraphSpec{Kind: "dodecahedron"}); err == nil {
		t.Fatal("unknown spec kind accepted")
	}
}

// TestSingleflightDedup drives N concurrent queries needing the same
// (graph, substrate) key through the store and asserts the substrate was
// built exactly once: one residency miss, and the substrate count/build
// rounds of a single construction.
func TestSingleflightDedup(t *testing.T) {
	s := New(Config{})
	g, err := s.RegisterSpec("g", gridSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	dists := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := s.With(context.Background(), "g", func(pg *planarflow.PreparedGraph, hit bool) error {
				d, err := dist(pg, 0, g.N()-1)
				dists[i] = d
				return err
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if dists[i] != dists[0] {
			t.Fatalf("worker %d saw distance %d, worker 0 saw %d", i, dists[i], dists[0])
		}
	}
	st := s.Snapshot()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, workers-1)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d under an unlimited budget", st.Evictions)
	}
	// Dist needs the BDD + the undirected primal labeling: exactly two
	// substrates however many workers raced.
	if st.Builds != 2 {
		t.Fatalf("substrates built = %d, want 2 (one build per key)", st.Builds)
	}
	// Build rounds equal one construction of each substrate, not N.
	var one int64
	err = s.With(context.Background(), "g", func(pg *planarflow.PreparedGraph, hit bool) error {
		one = pg.Stats().BuildRounds
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.BuildRounds != one {
		t.Fatalf("accounted build rounds %d != single-construction cost %d", st.BuildRounds, one)
	}
}

// TestLRUEvictionOrder registers three same-size graphs under a budget
// that fits two bundles and checks the least-recently-used one is evicted.
func TestLRUEvictionOrder(t *testing.T) {
	unit := distFootprint(t)
	s := New(Config{MaxBytes: 2*unit + unit/2})
	for i, id := range []string{"a", "b", "c"} {
		if _, err := s.RegisterSpec(id, gridSpec(int64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	touch := func(id string) {
		t.Helper()
		err := s.With(context.Background(), id, func(pg *planarflow.PreparedGraph, hit bool) error {
			_, err := dist(pg, 0, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	resident := func() map[string]bool {
		m := map[string]bool{}
		for _, gs := range s.Snapshot().PerGraph {
			m[gs.ID] = gs.Resident
		}
		return m
	}

	touch("a")
	touch("b")
	if r := resident(); !r["a"] || !r["b"] {
		t.Fatalf("two bundles should fit: %v", r)
	}
	touch("c") // over budget: evict a (least recent)
	if r := resident(); r["a"] || !r["b"] || !r["c"] {
		t.Fatalf("after touching c want b,c resident: %v", r)
	}
	touch("b") // refresh b; rebuild a -> evict c (now least recent)
	touch("a")
	if r := resident(); !r["a"] || !r["b"] || r["c"] {
		t.Fatalf("after refreshing b and rebuilding a want a,b resident: %v", r)
	}
	st := s.Snapshot()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("accounted bytes %d exceed budget %d after eviction", st.Bytes, st.MaxBytes)
	}
	// a's rebuild was accounted as a second miss + fresh builds.
	for _, gs := range st.PerGraph {
		if gs.ID == "a" && (gs.Misses != 2 || gs.Evictions != 1) {
			t.Fatalf("a: misses=%d evictions=%d, want 2/1", gs.Misses, gs.Evictions)
		}
	}
}

// TestPinnedBundleSurvivesEviction holds a bundle pinned while another
// graph blows the budget, and asserts the pinned bundle is not evicted
// until released.
func TestPinnedBundleSurvivesEviction(t *testing.T) {
	unit := distFootprint(t)
	s := New(Config{MaxBytes: unit + unit/2}) // fits one bundle
	for i, id := range []string{"a", "b"} {
		if _, err := s.RegisterSpec(id, gridSpec(int64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	err := s.With(context.Background(), "a", func(pg *planarflow.PreparedGraph, hit bool) error {
		if _, err := dist(pg, 0, 1); err != nil {
			return err
		}
		// a is pinned; building b exceeds the budget but must not evict a.
		err := s.With(context.Background(), "b", func(pg2 *planarflow.PreparedGraph, hit bool) error {
			_, err := dist(pg2, 0, 1)
			return err
		})
		if err != nil {
			return err
		}
		for _, gs := range s.Snapshot().PerGraph {
			if gs.ID == "a" && !gs.Resident {
				return errors.New("pinned bundle was evicted")
			}
		}
		// a is still queryable mid-pressure.
		_, err = dist(pg, 0, 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// After release, the next eviction pass may drop a (b was dropped at
	// a's release, or a was — either way the budget holds).
	if st := s.Snapshot(); st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d over budget %d after release", st.Bytes, st.MaxBytes)
	}
}

// TestQueryDuringEvictRace hammers a store whose budget forces constant
// eviction with concurrent queries over a working set, asserting every
// query returns the right answer while bundles are dropped under it. Run
// with -race, this is the eviction-vs-query safety test.
func TestQueryDuringEvictRace(t *testing.T) {
	const graphs = 4
	unit := distFootprint(t)
	s := New(Config{MaxBytes: unit * 2}) // thrash: ~half the working set fits
	want := map[string]int64{}
	for i := 0; i < graphs; i++ {
		id := fmt.Sprintf("g%d", i)
		g, err := s.RegisterSpec(id, gridSpec(int64(30+i)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := planarflow.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist(p, 0, g.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = d
	}
	const workers = 8
	const rounds = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("g%d", (w+r)%graphs)
				err := s.With(context.Background(), id, func(pg *planarflow.PreparedGraph, hit bool) error {
					d, err := dist(pg, 0, pg.Graph().N()-1)
					if err != nil {
						return err
					}
					if d != want[id] {
						return fmt.Errorf("%s: distance %d, want %d", id, d, want[id])
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a thrashing budget")
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d over budget %d at rest", st.Bytes, st.MaxBytes)
	}
}

// TestContextCancellationPropagates ensures a canceled request context
// surfaces from With as context.Canceled and leaves the store serviceable.
func TestContextCancellationPropagates(t *testing.T) {
	s := New(Config{})
	g, err := s.RegisterSpec("g", gridSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.With(ctx, "g", func(pg *planarflow.PreparedGraph, hit bool) error {
		_, err := dist(pg, 0, g.N()-1)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The abandoned build left no half-accounted substrate; a live request
	// builds from scratch and succeeds.
	err = s.With(context.Background(), "g", func(pg *planarflow.PreparedGraph, hit bool) error {
		_, err := dist(pg, 0, g.N()-1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	if st.Builds != 2 {
		t.Fatalf("builds = %d, want 2 (bdd + primal, once)", st.Builds)
	}

	// A request canceled while it waits on another caller's restore of its
	// graph returns the bare context error: nothing pinned, no hit or miss
	// counted, and the restore it left finishes for its owner.
	t.Run("waiter", func(t *testing.T) {
		s, want := spilled(t)
		started, feed := blockRestore(t, s, "g")
		q := planarflow.DistQuery(0, s.Graph("g").N()-1)
		base := mQueueWait.Snapshot().Count
		owner := make(chan int64, 1)
		go func() {
			a, _, err := s.Do(context.Background(), "g", q)
			if err != nil {
				t.Error(err)
				owner <- -1
				return
			}
			owner <- a.Value
		}()
		started()
		st0 := s.Snapshot()

		ctx, cancel := context.WithCancel(context.Background())
		waiter := make(chan error, 1)
		go func() {
			_, _, err := s.Do(ctx, "g", q)
			waiter <- err
		}()
		awaitAcquires(t, s, base, 2) // the waiter is parked on the owner's load
		cancel()
		select {
		case err := <-waiter:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("canceled waiter got %v, want context.Canceled", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("canceled waiter still waits for the owner's restore")
		}
		if st := s.Snapshot(); st.Hits != st0.Hits || st.Misses != st0.Misses || st.PerGraph[0].Pins != 0 {
			t.Errorf("canceled waiter left hits %d -> %d, misses %d -> %d, pins %d",
				st0.Hits, st.Hits, st0.Misses, st.Misses, st.PerGraph[0].Pins)
		}

		feed()
		if got := <-owner; got != want {
			t.Errorf("owner's dist %d, want %d", got, want)
		}
		if st := s.Snapshot(); st.SnapshotRestores != 1 || st.Misses != st0.Misses+1 || st.Builds != st0.Builds {
			t.Errorf("restores = %d, misses %d -> %d, builds %d -> %d; want 1, +1, +0",
				st.SnapshotRestores, st0.Misses, st.Misses, st0.Builds, st.Builds)
		}
	})
}

func TestGraphLimit(t *testing.T) {
	s := New(Config{MaxGraphs: 2})
	if _, err := s.RegisterSpec("a", gridSpec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterSpec("b", gridSpec(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterSpec("c", gridSpec(3)); !errors.Is(err, ErrGraphLimit) {
		t.Fatalf("third register under MaxGraphs=2: %v", err)
	}
	// Duplicate ids are rejected before generation and don't consume limit.
	if _, err := s.RegisterSpec("a", gridSpec(4)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate register: %v", err)
	}
	if got := len(s.IDs()); got != 2 {
		t.Fatalf("%d graphs registered, want 2", got)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		sp   GraphSpec
		want error // nil = valid
	}{
		{GraphSpec{Kind: "grid", Rows: 4, Cols: 4}, nil},
		{GraphSpec{Kind: "grid", Rows: 1, Cols: 9}, ErrBadSpec},
		{GraphSpec{Kind: "grid", Rows: 1 << 12, Cols: 1 << 12}, ErrBadSpec},
		{GraphSpec{Kind: "cylinder", Rows: 3, Cols: 2}, ErrBadSpec},
		{GraphSpec{Kind: "cylinder", Rows: 3, Cols: 3}, nil},
		{GraphSpec{Kind: "snake", Rows: 4, Cols: 5}, nil},
		{GraphSpec{Kind: "triangulation", N: 2}, ErrBadSpec},
		{GraphSpec{Kind: "triangulation", N: MaxSpecVertices + 1}, ErrBadSpec},
		{GraphSpec{Kind: "triangulation", N: 64}, nil},
		{GraphSpec{Kind: "grid", Rows: 4, Cols: 4, WLo: 5, WHi: 2}, ErrBadSpec},
		{GraphSpec{Kind: "grid", Rows: 4, Cols: 4, CLo: 5, CHi: 2}, ErrBadSpec},
		{GraphSpec{Kind: "grid", Rows: 4, Cols: 4, WLo: -1 << 62, WHi: 1 << 62}, planarflow.ErrWeightRange},
		{GraphSpec{Kind: ""}, ErrBadSpec},
		{GraphSpec{Kind: "nope"}, ErrBadSpec},
	}
	for _, c := range cases {
		err := c.sp.Validate()
		if c.want == nil && err != nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("Validate(%+v) = %v, want %v", c.sp, err, c.want)
		}
	}
}
