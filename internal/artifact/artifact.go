// Package artifact holds the prepared-graph bundle: the expensive, reusable
// substrates of the paper's algorithms — the Bounded Diameter Decomposition
// and the dual/primal distance labelings of §5, and the prices of the
// minor-aggregation simulator on G* (§4.2) — built once per graph and served
// to many queries concurrently.
//
// The paper observes (§5) that the Õ(D)-bit distance labels "actually allow
// computation of all pairs shortest paths": once the BDD and a labeling
// exist, every further query decodes locally. Prepared realizes that split.
// Substrates are keyed by what determines them — the BDD by its leaf limit,
// a labeling by (view, length kind, leaf limit), the minor-aggregation
// prices by the graph alone — and built lazily under a per-slot
// singleflight, so concurrent queries needing the same substrate block on
// one construction and then share the immutable result.
//
// Cancellation: a Prepared carries a context (WithContext derives a
// request-scoped view over the same substrate cache). The context is
// honored at substrate-build checkpoints: a waiter whose context is
// canceled stops waiting, and a builder whose context is canceled aborts
// the half-built substrate at its next checkpoint and releases the slot, so
// an abandoned request stops paying for a build nobody wants — the next
// live request restarts it.
//
// Round accounting: each slot builds into its own ledger; that snapshot is
// merged into the triggering query's ledger with ledger.Build scope exactly
// once (by the builder), so the first query on a graph reports the full
// build cost, later queries report Build=0, and the cumulative cost of
// everything built so far is available from BuildLedger. Stats reports the
// per-substrate footprint (estimated bytes + build rounds) the serving
// layer's eviction policy consumes.
package artifact

import (
	"context"
	"sort"
	"sync"
	"time"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/minoragg"
	"planarflow/internal/obs"
	"planarflow/internal/planar"
)

// minorAgg is the Stats kind string and substrate_build_seconds label of
// the minor-aggregation prices.
const minorAgg = "minoragg"

// Per-substrate build-duration histograms, resolved once. The builder of
// a slot records the wall time here and charges it to the triggering
// request's span (singleflight waiters charge nothing), mirroring the
// ledger's charge-the-builder round accounting.
var mBuild = map[string]*obs.Histogram{
	"bdd": obs.Default().Histogram("substrate_build_seconds",
		"Substrate construction wall time by kind (inclusive: a labeling built on a cold graph includes its BDD build).", obs.L("substrate", "bdd")),
	"dual-label":   obs.Default().Histogram("substrate_build_seconds", "", obs.L("substrate", "dual-label")),
	"primal-label": obs.Default().Histogram("substrate_build_seconds", "", obs.L("substrate", "primal-label")),
	minorAgg:       obs.Default().Histogram("substrate_build_seconds", "", obs.L("substrate", minorAgg)),
}

// LengthKind identifies a per-dart length function derived from the graph's
// edge weights. Together with the leaf limit it keys a cached labeling.
type LengthKind int

const (
	// Undirected charges Weight(e) to both darts of e: the length function
	// of the undirected distance oracle and of dual SSSP under "both
	// crossing directions" semantics.
	Undirected LengthKind = iota
	// Directed charges Weight(e) to the forward dart and deactivates the
	// backward dart: one-way oracle semantics, and the directed-girth
	// instance.
	Directed
	// FreeReversal charges Weight(e) forward and 0 backward: the dual
	// length function of directed global minimum cut (§7), where crossing
	// an edge against its direction is free.
	FreeReversal
)

func (k LengthKind) String() string {
	switch k {
	case Undirected:
		return "undirected"
	case Directed:
		return "directed"
	case FreeReversal:
		return "free-reversal"
	default:
		return "unknown"
	}
}

// Lengths materializes the per-dart length vector of a kind for g. The
// Undirected and Directed kinds are label.UniformLengths' two modes;
// delegating keeps a single definition of the dart-length convention.
func Lengths(g *planar.Graph, kind LengthKind) []int64 {
	if kind != FreeReversal {
		return label.UniformLengths(g, kind == Directed)
	}
	lens := make([]int64, g.NumDarts())
	for e := 0; e < g.M(); e++ {
		lens[planar.ForwardDart(e)] = g.Edge(e).Weight
		lens[planar.BackwardDart(e)] = 0
	}
	return lens
}

// labelKey identifies one cached labeling.
type labelKey struct {
	view      label.View
	kind      LengthKind
	leafLimit int
}

// substrate is the Stats kind string and substrate_build_seconds label of
// each view's labelings (constants: Stats runs on the serving path).
var substrate = [...]string{label.Dual: "dual-label", label.Primal: "primal-label"}

// slot is one lazily-built substrate under singleflight: at most one
// builder runs at a time; waiters block on inflight (or their context) and
// re-check. A canceled builder leaves the slot empty for the next caller.
type slot[T any] struct {
	val      T
	ready    bool
	cache    bool           // a simulation cache: its bytes count, it is no substrate
	inflight chan struct{}  // non-nil while a build is running
	led      *ledger.Ledger // build cost of the published value
	bytes    int64          // footprint estimate of the published value
}

// state is the substrate cache shared by every context-bound view of one
// prepared graph.
type state struct {
	g *planar.Graph

	mu     sync.Mutex
	trees  map[int]*slot[*bdd.BDD]
	labels map[labelKey]*slot[*label.Labeling]
	prices slot[minoragg.Prices]
	flows  map[int]*slot[*FlowBase] // by leaf limit

	build *ledger.Ledger // cumulative build cost of every substrate built

	// Running totals of the published slots — Stats' three sums, kept as
	// each slot publishes so the serving layer's per-query re-accounting
	// reads them without walking or sorting the slots.
	totBytes, totRounds int64
	totSubstrates       int

	// defaultLeaf caches bdd.DefaultLeafLimit(g), which costs two BFS
	// traversals — deterministic per graph, and on every query's path via
	// ResolveLeafLimit, so it must not be recomputed per query.
	defaultLeafOnce sync.Once
	defaultLeaf     int
}

// Prepared is the reusable artifact bundle of one embedded graph: a
// request context over the shared substrate cache. Safe for concurrent
// use; all substrates are immutable once built.
type Prepared struct {
	ctx context.Context
	st  *state
}

// New wraps g in an empty prepared bundle bound to the background context;
// nothing is built until queried.
func New(g *planar.Graph) *Prepared {
	return &Prepared{
		ctx: context.Background(),
		st: &state{
			g:      g,
			trees:  map[int]*slot[*bdd.BDD]{},
			labels: map[labelKey]*slot[*label.Labeling]{},
			flows:  map[int]*slot[*FlowBase]{},
			build:  ledger.New(),
		},
	}
}

// WithContext returns a view over the same substrate cache whose builds
// and waits are canceled with ctx. Substrates built through any view are
// shared by all views.
func (p *Prepared) WithContext(ctx context.Context) *Prepared {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Prepared{ctx: ctx, st: p.st}
}

// Context returns the context this view is bound to.
func (p *Prepared) Context() context.Context { return p.ctx }

// Graph returns the underlying embedded graph.
func (p *Prepared) Graph() *planar.Graph { return p.st.g }

// ResolveLeafLimit normalizes a leaf-limit request the way bdd.Build does
// (0 means the paper's Θ(D log n) default), so equal requests share a slot.
func (p *Prepared) ResolveLeafLimit(leafLimit int) int {
	if leafLimit == 0 {
		p.st.defaultLeafOnce.Do(func() {
			p.st.defaultLeaf = bdd.DefaultLeafLimit(p.st.g)
		})
		leafLimit = p.st.defaultLeaf
	}
	if leafLimit < 4 {
		leafLimit = 4
	}
	return leafLimit
}

// get runs the slot singleflight: return the published value, or join the
// inflight build, or become the builder. build constructs the value into
// the supplied slot ledger; errors (cancellation) leave the slot empty so
// a later live request restarts the build.
func get[T any](p *Prepared, s *slot[T], kind string,
	build func(ctx context.Context, led *ledger.Ledger) (T, int64, error)) (T, *ledger.Ledger, bool, error) {
	mu := &p.st.mu
	var zero T
	for {
		mu.Lock()
		if s.ready {
			v, led := s.val, s.led
			mu.Unlock()
			return v, led, false, nil
		}
		if ch := s.inflight; ch != nil {
			mu.Unlock()
			select {
			case <-ch:
				continue // build finished or aborted: re-check
			case <-p.ctx.Done():
				return zero, nil, false, p.ctx.Err()
			}
		}
		if err := p.ctx.Err(); err != nil {
			mu.Unlock()
			return zero, nil, false, err
		}
		ch := make(chan struct{})
		s.inflight = ch
		mu.Unlock()

		v, led, err := runBuild(p, s, ch, kind, build)
		if err != nil {
			return zero, nil, false, err
		}
		return v, led, true, nil
	}
}

// runBuild executes the builder's critical section. The slot release and
// waiter wakeup run in a defer so that a panicking substrate builder (a
// degenerate generated graph, say) cannot leave the inflight channel
// unclosed and hang every later query for the slot — the panic
// propagates, the slot empties, and the next caller rebuilds.
func runBuild[T any](p *Prepared, s *slot[T], ch chan struct{}, kind string,
	build func(ctx context.Context, led *ledger.Ledger) (T, int64, error)) (v T, led *ledger.Ledger, err error) {
	led = ledger.New()
	var bytes int64
	completed := false
	defer func() {
		p.st.mu.Lock()
		s.inflight = nil
		if completed && err == nil {
			s.val, s.led, s.bytes, s.ready = v, led, bytes, true
			p.st.count(bytes, led, !s.cache)
		}
		close(ch)
		p.st.mu.Unlock()
	}()
	sp := obs.SpanFromContext(p.ctx)
	nested := sp.PhaseNS(obs.PhaseBuild)
	t0 := time.Now()
	v, bytes, err = build(p.ctx, led)
	completed = true
	if err == nil {
		d := time.Since(t0)
		if h := mBuild[kind]; h != nil {
			// Histogram wall is inclusive: a labeling built on a cold graph
			// includes its BDD construction (see the metric help).
			h.Observe(d)
		}
		// Span charge is exclusive: a nested build (the BDD under a labeling)
		// already charged its own wall through its own runBuild, so only the
		// increment beyond what the span accumulated during this build counts.
		if inner := sp.PhaseNS(obs.PhaseBuild) - nested; d.Nanoseconds() > inner {
			sp.Add(obs.PhaseBuild, d-time.Duration(inner))
		}
	}
	return v, led, err
}

// count adds one published slot to the running totals (caller holds the
// state lock); a cache adds its bytes and no substrate.
func (st *state) count(bytes int64, led *ledger.Ledger, substrate bool) {
	st.totBytes += bytes
	st.totRounds += led.Total()
	if substrate {
		st.totSubstrates++
	}
}

// chargeBuild books a slot's construction, once: Build scope in the ledger
// of the query that triggered it and in the bundle's cumulative one.
func (p *Prepared) chargeBuild(slotLed, led *ledger.Ledger) {
	p.st.build.MergeAs(slotLed, ledger.Build)
	led.MergeAs(slotLed, ledger.Build)
}

// Tree returns the BDD for the given leaf limit, building it on first use.
// The build cost is charged to led (Build scope) by whichever call triggers
// construction; cache hits charge nothing. The only possible error is the
// view context's cancellation.
func (p *Prepared) Tree(leafLimit int, led *ledger.Ledger) (*bdd.BDD, error) {
	leafLimit = p.ResolveLeafLimit(leafLimit)
	p.st.mu.Lock()
	s, ok := p.st.trees[leafLimit]
	if !ok {
		s = &slot[*bdd.BDD]{}
		p.st.trees[leafLimit] = s
	}
	p.st.mu.Unlock()
	v, slotLed, built, err := get(p, s, "bdd",
		func(ctx context.Context, bled *ledger.Ledger) (*bdd.BDD, int64, error) {
			t, err := bdd.BuildContext(ctx, p.st.g, leafLimit, bled)
			if err != nil {
				return nil, 0, err
			}
			return t, t.FootprintBytes(), nil
		})
	if err != nil {
		return nil, err
	}
	if built {
		p.chargeBuild(slotLed, led)
	}
	return v, nil
}

// DualLabels returns the dual distance labeling for (kind, leafLimit),
// building the BDD and labeling on first use. A labeling with NegCycle set
// is cached and returned as-is; callers decide how to report it. The only
// possible error is the view context's cancellation.
func (p *Prepared) DualLabels(kind LengthKind, leafLimit int, led *ledger.Ledger) (*label.Labeling, error) {
	return p.labels(label.Dual, kind, leafLimit, led)
}

// PrimalLabels is DualLabels for the primal distance labeling.
func (p *Prepared) PrimalLabels(kind LengthKind, leafLimit int, led *ledger.Ledger) (*label.Labeling, error) {
	return p.labels(label.Primal, kind, leafLimit, led)
}

func (p *Prepared) labels(v label.View, kind LengthKind, leafLimit int, led *ledger.Ledger) (*label.Labeling, error) {
	leafLimit = p.ResolveLeafLimit(leafLimit)
	key := labelKey{v, kind, leafLimit}
	p.st.mu.Lock()
	s, ok := p.st.labels[key]
	if !ok {
		s = &slot[*label.Labeling]{}
		p.st.labels[key] = s
	}
	p.st.mu.Unlock()
	la, slotLed, built, err := get(p, s, substrate[v],
		func(ctx context.Context, bled *ledger.Ledger) (*label.Labeling, int64, error) {
			// The tree slot accounts its own (possible) construction against
			// the caller's ledger and the cumulative build ledger; this slot's
			// ledger holds only the labeling-computation cost.
			tree, err := p.Tree(leafLimit, led)
			if err != nil {
				return nil, 0, err
			}
			la, err := label.ComputeContext(ctx, v, tree, Lengths(p.st.g, kind), bled)
			if err != nil {
				return nil, 0, err
			}
			return la, la.FootprintBytes(), nil
		})
	if err != nil {
		return nil, err
	}
	if built {
		p.chargeBuild(slotLed, led)
	}
	return la, nil
}

// MinorAgg returns a charging handle for one query's minor-aggregation
// rounds on G*, building the graph's prices on first use: that build runs
// minoragg.MeasurePrices — Ĝ, its shortcut skeleton and one measured
// faces-as-parts PA — and keeps only the prices, which is all a query reads
// of it. The construction rounds are charged to led (Build scope) by
// whichever call triggers the build; everything the handle charges
// afterwards lands in led at Query scope. The only possible error is the
// view context's cancellation.
func (p *Prepared) MinorAgg(led *ledger.Ledger) (minoragg.Handle, error) {
	pr, slotLed, built, err := get(p, &p.st.prices, minorAgg,
		func(_ context.Context, bled *ledger.Ledger) (minoragg.Prices, int64, error) {
			pr := minoragg.MeasurePrices(p.st.g, bled)
			return pr, pr.FootprintBytes(), nil
		})
	if err != nil {
		return minoragg.Handle{}, err
	}
	if built {
		p.chargeBuild(slotLed, led)
	}
	return minoragg.NewHandle(pr, p.st.g, led), nil
}

// BuildLedger returns a snapshot of the cumulative build cost of every
// substrate constructed so far (each substrate counted once, regardless of
// how many queries shared it).
func (p *Prepared) BuildLedger() *ledger.Ledger {
	snap := ledger.New()
	snap.Merge(p.st.build)
	return snap
}

// SubstrateStats describes one built substrate: its identity and the two
// costs the serving layer budgets by — estimated resident bytes and the
// one-time construction rounds.
type SubstrateStats struct {
	Kind        string     `json:"kind"` // "bdd" | "dual-label" | "minoragg" | "primal-label"
	Lengths     LengthKind `json:"-"`
	LengthsName string     `json:"lengths,omitempty"` // labelings only
	LeafLimit   int        `json:"leaf_limit"`        // 0 for the minor-aggregation prices
	Bytes       int64      `json:"bytes"`
	BuildRounds int64      `json:"build_rounds"`
}

// Stats is a point-in-time snapshot of everything built so far.
type Stats struct {
	Substrates []SubstrateStats `json:"substrates"`
	// Caches are the simulation caches built beside the substrates (kind
	// "maxflow-base", by leaf limit): never snapshotted, no build rounds.
	Caches      []SubstrateStats `json:"caches,omitempty"`
	Bytes       int64            `json:"bytes"`        // total estimated footprint, caches included
	BuildRounds int64            `json:"build_rounds"` // total one-time cost
}

// Totals returns Stats' three sums — footprint bytes, substrate count
// and build rounds — without the per-substrate list: O(1), for callers
// that re-account a bundle after every query. A cache's bytes count; a
// cache is no substrate, so a bundle that builds one builds nothing the
// serving layer counts as a build or a snapshot would carry.
func (p *Prepared) Totals() (bytes int64, substrates int, buildRounds int64) {
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	return p.st.totBytes, p.st.totSubstrates, p.st.totRounds
}

// Stats snapshots the built substrates (in-flight builds are excluded
// until they publish). The slice is ordered deterministically, by kind
// name: BDDs by leaf limit, dual labelings by (kind, leaf limit), the
// minor-aggregation prices, primal labelings.
func (p *Prepared) Stats() Stats {
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	var st Stats
	add := func(s SubstrateStats) {
		st.Substrates = append(st.Substrates, s)
		st.Bytes += s.Bytes
		st.BuildRounds += s.BuildRounds
	}
	for ll, s := range p.st.trees {
		if s.ready {
			add(SubstrateStats{Kind: "bdd", LeafLimit: ll, Bytes: s.bytes, BuildRounds: s.led.Total()})
		}
	}
	for k, s := range p.st.labels {
		if s.ready {
			add(SubstrateStats{Kind: substrate[k.view], Lengths: k.kind, LengthsName: k.kind.String(),
				LeafLimit: k.leafLimit, Bytes: s.bytes, BuildRounds: s.led.Total()})
		}
	}
	if s := &p.st.prices; s.ready {
		add(SubstrateStats{Kind: minorAgg, Bytes: s.bytes, BuildRounds: s.led.Total()})
	}
	for ll, s := range p.st.flows {
		if s.ready {
			st.Caches = append(st.Caches, SubstrateStats{Kind: flowBase, LeafLimit: ll, Bytes: s.bytes})
			st.Bytes += s.bytes
		}
	}
	sort.Slice(st.Caches, func(i, j int) bool { return st.Caches[i].LeafLimit < st.Caches[j].LeafLimit })
	sort.Slice(st.Substrates, func(i, j int) bool {
		a, b := st.Substrates[i], st.Substrates[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Lengths != b.Lengths {
			return a.Lengths < b.Lengths
		}
		return a.LeafLimit < b.LeafLimit
	})
	return st
}
