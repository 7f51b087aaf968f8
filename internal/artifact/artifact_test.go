package artifact

import (
	"context"
	"errors"
	"sync"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

func TestLengthsKinds(t *testing.T) {
	g := planar.Grid(3, 3).WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		old.Weight = int64(e + 1)
		return old
	})
	und := Lengths(g, Undirected)
	dir := Lengths(g, Directed)
	fr := Lengths(g, FreeReversal)
	for e := 0; e < g.M(); e++ {
		w := g.Edge(e).Weight
		fw, bw := planar.ForwardDart(e), planar.BackwardDart(e)
		if und[fw] != w || und[bw] != w {
			t.Fatalf("undirected lengths of edge %d: %d/%d want %d/%d", e, und[fw], und[bw], w, w)
		}
		if dir[fw] != w || dir[bw] != spath.Inf {
			t.Fatalf("directed lengths of edge %d: %d/%d", e, dir[fw], dir[bw])
		}
		if fr[fw] != w || fr[bw] != 0 {
			t.Fatalf("free-reversal lengths of edge %d: %d/%d", e, fr[fw], fr[bw])
		}
	}
}

// mustTree and friends unwrap the background-context getters, whose only
// error path is cancellation.
func mustTree(t *testing.T, p *Prepared, leafLimit int, led *ledger.Ledger) *bdd.BDD {
	t.Helper()
	tree, err := p.Tree(leafLimit, led)
	if err != nil {
		t.Fatalf("Tree: %v", err)
	}
	return tree
}

func mustDual(t *testing.T, p *Prepared, kind LengthKind, leafLimit int, led *ledger.Ledger) *label.Labeling {
	t.Helper()
	la, err := p.DualLabels(kind, leafLimit, led)
	if err != nil {
		t.Fatalf("DualLabels: %v", err)
	}
	return la
}

func mustPrimal(t *testing.T, p *Prepared, kind LengthKind, leafLimit int, led *ledger.Ledger) *label.Labeling {
	t.Helper()
	la, err := p.PrimalLabels(kind, leafLimit, led)
	if err != nil {
		t.Fatalf("PrimalLabels: %v", err)
	}
	return la
}

func TestTreeCachedPerLeafLimit(t *testing.T) {
	p := New(planar.Grid(5, 5))
	led1 := ledger.New()
	t1 := mustTree(t, p, 0, led1)
	if b, _ := led1.BuildSplit(); b <= 0 {
		t.Fatalf("first build charged %d build rounds", b)
	}
	led2 := ledger.New()
	if t2 := mustTree(t, p, 0, led2); t2 != t1 {
		t.Fatal("default-leaf-limit tree not cached")
	}
	if led2.Total() != 0 {
		t.Fatalf("cache hit charged %d rounds", led2.Total())
	}
	// A different leaf limit is a different substrate.
	led3 := ledger.New()
	if t3 := mustTree(t, p, 8, led3); t3 == t1 {
		t.Fatal("distinct leaf limits share a tree")
	}
	if led3.Total() == 0 {
		t.Fatal("distinct leaf limit built for free")
	}
	// Explicitly passing the resolved default hits the same slot as 0.
	led4 := ledger.New()
	if t4 := mustTree(t, p, p.ResolveLeafLimit(0), led4); t4 != t1 || led4.Total() != 0 {
		t.Fatal("resolved default limit did not share the default slot")
	}
}

func TestLabelingsCachedAndShareTree(t *testing.T) {
	p := New(planar.Grid(4, 4))
	led := ledger.New()
	dl := mustDual(t, p, Undirected, 0, led)
	if dl.NegCycle {
		t.Fatal("unexpected negative cycle")
	}
	buildFirst, _ := led.BuildSplit()
	if buildFirst <= 0 {
		t.Fatal("no build cost charged for first labeling")
	}

	// Second kind reuses the cached tree: its build cost must be smaller
	// than the first (tree + labels) but positive (labels).
	led2 := ledger.New()
	pl := mustPrimal(t, p, Directed, 0, led2)
	if pl.NegCycle {
		t.Fatal("unexpected negative cycle")
	}
	buildSecond, _ := led2.BuildSplit()
	if buildSecond <= 0 || buildSecond >= buildFirst {
		t.Fatalf("second-substrate build cost %d, want in (0, %d)", buildSecond, buildFirst)
	}

	// Hits are free and return the identical object.
	led3 := ledger.New()
	if mustDual(t, p, Undirected, 0, led3) != dl || led3.Total() != 0 {
		t.Fatal("dual labeling cache hit not free")
	}
	led4 := ledger.New()
	if mustPrimal(t, p, Directed, 0, led4) != pl || led4.Total() != 0 {
		t.Fatal("primal labeling cache hit not free")
	}

	// The cumulative build ledger counts every substrate exactly once.
	wantTotal := buildFirst + buildSecond
	if got := p.BuildLedger().Total(); got != wantTotal {
		t.Fatalf("cumulative build ledger %d, want %d", got, wantTotal)
	}
}

func TestBuildEntriesAreBuildScoped(t *testing.T) {
	p := New(planar.Grid(4, 4))
	led := ledger.New()
	mustDual(t, p, Undirected, 0, led)
	if _, q := led.BuildSplit(); q != 0 {
		t.Fatalf("substrate construction leaked %d query-scoped rounds", q)
	}
	for _, e := range p.BuildLedger().Entries() {
		if e.Scope != ledger.Build {
			t.Fatalf("build ledger entry %+v not build-scoped", e)
		}
	}
}

func TestConcurrentFirstUseBuildsOnce(t *testing.T) {
	p := New(planar.Grid(6, 6))
	const workers = 16
	vals := make([]any, workers)
	totals := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			led := ledger.New()
			la, err := p.DualLabels(Undirected, 0, led)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			vals[i] = la
			totals[i] = led.Total()
		}(i)
	}
	wg.Wait()
	var paid int
	for i := 1; i < workers; i++ {
		if vals[i] != vals[0] {
			t.Fatal("concurrent first use produced distinct labelings")
		}
	}
	for _, tot := range totals {
		if tot > 0 {
			paid++
		}
	}
	if paid != 1 {
		t.Fatalf("%d workers paid build cost, want exactly 1", paid)
	}
	// Exactly one tree + one labeling in the cumulative ledger.
	led := ledger.New()
	mustDual(t, p, Undirected, 0, led)
	if led.Total() != 0 {
		t.Fatal("post-race call rebuilt the labeling")
	}
}

func TestCanceledContextAbortsBuildAndReleasesSlot(t *testing.T) {
	p := New(planar.Grid(6, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first checkpoint must fire
	led := ledger.New()
	if _, err := p.WithContext(ctx).Tree(0, led); !errors.Is(err, context.Canceled) {
		t.Fatalf("Tree under canceled ctx: err=%v, want context.Canceled", err)
	}
	if led.Total() != 0 {
		t.Fatalf("aborted build charged %d rounds", led.Total())
	}
	if st := p.Stats(); len(st.Substrates) != 0 {
		t.Fatalf("aborted build published %d substrates", len(st.Substrates))
	}
	// The slot is released: a live context builds normally.
	led2 := ledger.New()
	tree := mustTree(t, p, 0, led2)
	if tree == nil || led2.Total() == 0 {
		t.Fatal("rebuild after aborted build did not run")
	}
	// Labeling getters propagate cancellation the same way.
	if _, err := p.WithContext(ctx).DualLabels(Undirected, 0, ledger.New()); !errors.Is(err, context.Canceled) {
		t.Fatalf("DualLabels under canceled ctx: err=%v", err)
	}
	if _, err := p.WithContext(ctx).PrimalLabels(Directed, 0, ledger.New()); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrimalLabels under canceled ctx: err=%v", err)
	}
}

func TestCanceledWaiterLeavesBuilderRunning(t *testing.T) {
	p := New(planar.Grid(8, 8))
	ctx, cancel := context.WithCancel(context.Background())

	// Builder starts with a live context; a waiter joins with one that is
	// canceled mid-wait. The waiter must error out, the builder publish.
	started := make(chan struct{})
	builderDone := make(chan error, 1)
	go func() {
		close(started)
		_, err := p.Tree(0, ledger.New())
		builderDone <- err
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		_, err := p.WithContext(ctx).Tree(0, ledger.New())
		waiterDone <- err
	}()
	cancel()
	if err := <-builderDone; err != nil {
		t.Fatalf("builder failed: %v", err)
	}
	// The waiter either joined before cancel (nil) or was canceled; both
	// orders are legal — what matters is it returned and the slot is warm.
	if err := <-waiterDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: unexpected error %v", err)
	}
	led := ledger.New()
	mustTree(t, p, 0, led)
	if led.Total() != 0 {
		t.Fatal("slot not warm after builder finished")
	}
}

// TestPanickingBuilderReleasesSlot drives the slot machinery directly
// with a builder that panics, and asserts the panic propagates without
// poisoning the slot: the inflight channel is closed, and the next
// caller rebuilds successfully instead of hanging.
func TestPanickingBuilderReleasesSlot(t *testing.T) {
	p := New(planar.Grid(3, 3))
	s := &slot[int]{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("builder panic did not propagate")
			}
		}()
		get(p, s, "test", func(ctx context.Context, led *ledger.Ledger) (int, int64, error) {
			panic("degenerate input")
		})
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, built, err := get(p, s, "test", func(ctx context.Context, led *ledger.Ledger) (int, int64, error) {
			return 7, 1, nil
		})
		if err != nil || !built || v != 7 {
			t.Errorf("rebuild after panic: v=%d built=%v err=%v", v, built, err)
		}
	}()
	<-done
}

func TestStatsFootprintAccounting(t *testing.T) {
	p := New(planar.Grid(6, 6))
	if st := p.Stats(); st.Bytes != 0 || st.BuildRounds != 0 || len(st.Substrates) != 0 {
		t.Fatalf("empty bundle has nonzero stats: %+v", st)
	}
	mustDual(t, p, Undirected, 0, ledger.New())
	mustPrimal(t, p, Directed, 0, ledger.New())
	st := p.Stats()
	if len(st.Substrates) != 3 { // bdd + dual + primal
		t.Fatalf("got %d substrates, want 3: %+v", len(st.Substrates), st.Substrates)
	}
	var bytes, rounds int64
	kinds := map[string]int{}
	for _, s := range st.Substrates {
		if s.Bytes <= 0 {
			t.Fatalf("substrate %+v has non-positive footprint", s)
		}
		if s.BuildRounds <= 0 {
			t.Fatalf("substrate %+v has non-positive build rounds", s)
		}
		bytes += s.Bytes
		rounds += s.BuildRounds
		kinds[s.Kind]++
	}
	if bytes != st.Bytes || rounds != st.BuildRounds {
		t.Fatalf("totals %d/%d don't match substrate sums %d/%d", st.Bytes, st.BuildRounds, bytes, rounds)
	}
	if kinds["bdd"] != 1 || kinds["dual-label"] != 1 || kinds["primal-label"] != 1 {
		t.Fatalf("unexpected kind distribution %v", kinds)
	}
	// Stats' total build rounds equal the cumulative build ledger.
	if got := p.BuildLedger().Total(); got != st.BuildRounds {
		t.Fatalf("stats build rounds %d != build ledger %d", st.BuildRounds, got)
	}
}

// TestMinorAggCanceledWaiter parks a waiter behind an in-flight build of the
// prices with its context already canceled: it returns the context's error
// with nothing charged, and the builder it stopped waiting for is untouched
// — once that build is released, the next live call finds the slot free and
// builds.
func TestMinorAggCanceledWaiter(t *testing.T) {
	p := New(planar.Grid(6, 6))
	// Stand in for a running builder: the slot is marked in flight and
	// never publishes until the test says so.
	inflight := make(chan struct{})
	p.st.mu.Lock()
	p.st.prices.inflight = inflight
	p.st.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	led := ledger.New()
	if _, err := p.WithContext(ctx).MinorAgg(led); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err=%v, want context.Canceled", err)
	}
	if led.Total() != 0 || p.BuildLedger().Total() != 0 {
		t.Fatalf("canceled waiter charged %d rounds (build ledger %d)", led.Total(), p.BuildLedger().Total())
	}

	// The stand-in builder aborts; a live waiter wakes, re-checks and
	// becomes the builder.
	done := make(chan *ledger.Ledger, 1)
	go func() {
		led := ledger.New()
		if _, err := p.MinorAgg(led); err != nil {
			t.Error(err)
		}
		done <- led
	}()
	p.st.mu.Lock()
	p.st.prices.inflight = nil
	close(inflight)
	p.st.mu.Unlock()
	if b, _ := (<-done).BuildSplit(); b == 0 {
		t.Fatal("live call after the aborted build did not build the prices")
	}
	if st := p.Stats(); len(st.Substrates) != 1 || st.Substrates[0].Kind != minorAgg || st.Substrates[0].BuildRounds == 0 || st.Substrates[0].Bytes == 0 {
		t.Fatalf("stats after the build: %+v", st.Substrates)
	}
}
