// Package decode is the fast execution route for the label-backed query
// families: once the prepared substrates (BDD bags, distance labelings)
// exist, a query is a local decode (§5, Thm 2.1), so nothing about its
// answer — or its charged CONGEST bound — depends on re-entering the
// simulated network. The engine answers dualsssp from a per-source decode
// row and the argless families (girth, dirgirth, globalmincut) from a
// record-and-replay memo, while keeping the charged-rounds ledger as an
// audit artifact: every fast answer carries exactly the entries the
// simulated route would have recorded, phase by phase, so the two routes
// are bit-identical in both payload and rounds (the differential tests in
// the planarflow package hold them to that).
//
// Invariants the engine maintains:
//
//   - Substrate construction is still charged to the query that triggers
//     it (Build scope), exactly as on the simulated route: the engine
//     fetches substrates through the caller's ledger and memoizes only the
//     Query-scope entries of the first run.
//   - Results handed to callers never alias the cache: slices are copied
//     on every hit, so a caller mutating an Answer cannot corrupt later
//     answers.
//   - Errors are never memoized; an erroring query re-runs the core route
//     with the caller's ledger and reports the identical error.
package decode

import (
	"sync"
	"time"

	"planarflow/internal/artifact"
	"planarflow/internal/core"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// Engine caches decoded answers for one artifact.Prepared. It is shared by
// every context-bound view of a PreparedGraph and is safe for concurrent
// use; its lifetime (and memory) is tied to the prepared bundle, so store
// eviction drops the caches with the substrates.
type Engine struct {
	mu   sync.Mutex
	rows map[rowKey]*ssspRow
	// Memo per argless family; dirgirth and globalmincut key by resolved
	// leaf limit (their answers decode from leaf-limit-keyed substrates),
	// girth has no substrate and a single entry.
	girth map[int]*girthMemo
	dir   map[int]*dirMemo
	cut   map[int]*cutMemo
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		rows:  make(map[rowKey]*ssspRow),
		girth: make(map[int]*girthMemo),
		dir:   make(map[int]*dirMemo),
		cut:   make(map[int]*cutMemo),
	}
}

// rowKey identifies one decoded SSSP row. Keying by labeling pointer keeps
// rows of distinct leaf limits (distinct labelings) apart and lets a
// restored or rebuilt labeling start with fresh rows.
type rowKey struct {
	la     *label.Labeling
	source int
}

// ssspRow is one memoized dual SSSP computation: the decoded result plus
// the per-query phases the simulated route records for it, replayed into
// every caller's ledger.
type ssspRow struct {
	res *label.SSSPResult
	led *ledger.Ledger
}

type girthMemo struct {
	res *core.GirthResult
	led *ledger.Ledger
}

type dirMemo struct {
	weight int64
	led    *ledger.Ledger
}

type cutMemo struct {
	res *core.GlobalCutResult
	led *ledger.Ledger
}

// DualSSSP answers a dual single-source shortest-paths query from the
// decoded row cache. The undirected dual labeling is fetched through the
// caller's ledger (so a triggered build is charged to this query, Build
// scope, as on the simulated route); the row itself — the label broadcast
// and tree marking of Lemma 2.2 — is decoded once per (labeling, source)
// and replayed thereafter.
func (e *Engine) DualSSSP(p *artifact.Prepared, sourceFace, leafLimit int, led *ledger.Ledger) (*label.SSSPResult, error) {
	la, err := p.DualLabels(artifact.Undirected, leafLimit, led)
	if err != nil {
		return nil, err
	}
	if la.NegCycle {
		// Mirror core.DualSSSP: a negative cycle is reported without
		// decoding (and without per-query charges).
		return &label.SSSPResult{Source: sourceFace, NegCycle: true}, nil
	}
	row := e.row(la, sourceFace)
	led.Merge(row.led)
	return &label.SSSPResult{
		Source:   sourceFace,
		Dist:     append([]int64(nil), row.res.Dist...),
		TreeDart: append([]planar.Dart(nil), row.res.TreeDart...),
	}, nil
}

// row returns the memoized SSSP row, decoding it on first use. The decode
// runs outside the engine lock (two racing first queries both decode — the
// results are identical and the first publish wins), so a cold row never
// serializes unrelated queries.
func (e *Engine) row(la *label.Labeling, source int) *ssspRow {
	k := rowKey{la, source}
	e.mu.Lock()
	r := e.rows[k]
	e.mu.Unlock()
	if r != nil {
		mRowHits.Inc()
		return r
	}
	mRowMisses.Inc()
	t0 := time.Now()
	scratch := ledger.New()
	r = &ssspRow{res: la.SSSP(source, scratch), led: scratch}
	mDecode["dualsssp"].Observe(time.Since(t0))
	e.mu.Lock()
	if prev := e.rows[k]; prev != nil {
		r = prev
	} else {
		e.rows[k] = r
	}
	e.mu.Unlock()
	return r
}

// Girth answers the weighted-girth query from the memo, running the
// minor-aggregation route of Thm 1.7 exactly once per graph.
func (e *Engine) Girth(p *artifact.Prepared, led *ledger.Ledger) (*core.GirthResult, error) {
	e.mu.Lock()
	m := e.girth[0]
	e.mu.Unlock()
	if m != nil {
		mMemoHits["girth"].Inc()
		led.Merge(m.led)
		return &core.GirthResult{
			Weight:     m.res.Weight,
			CycleEdges: append([]int(nil), m.res.CycleEdges...),
		}, nil
	}
	mMemoMisses["girth"].Inc()
	t0 := time.Now()
	scratch := ledger.New()
	res, err := core.Girth(p, scratch)
	led.Merge(scratch)
	if err != nil {
		return nil, err
	}
	mDecode["girth"].Observe(time.Since(t0))
	e.mu.Lock()
	if e.girth[0] == nil {
		e.girth[0] = &girthMemo{res: res, led: queryOnly(scratch)}
	}
	e.mu.Unlock()
	return &core.GirthResult{
		Weight:     res.Weight,
		CycleEdges: append([]int(nil), res.CycleEdges...),
	}, nil
}

// DirectedGirth answers the directed-girth query from the memo, keyed by
// the resolved leaf limit of the BDD/labeling substrate it decodes from.
func (e *Engine) DirectedGirth(p *artifact.Prepared, opt core.Options, led *ledger.Ledger) (int64, error) {
	k := p.ResolveLeafLimit(opt.LeafLimit)
	e.mu.Lock()
	m := e.dir[k]
	e.mu.Unlock()
	if m != nil {
		mMemoHits["dirgirth"].Inc()
		led.Merge(m.led)
		return m.weight, nil
	}
	mMemoMisses["dirgirth"].Inc()
	t0 := time.Now()
	scratch := ledger.New()
	w, err := core.DirectedGirth(p, opt, scratch)
	led.Merge(scratch)
	if err != nil {
		return 0, err
	}
	mDecode["dirgirth"].Observe(time.Since(t0))
	e.mu.Lock()
	if e.dir[k] == nil {
		e.dir[k] = &dirMemo{weight: w, led: queryOnly(scratch)}
	}
	e.mu.Unlock()
	return w, nil
}

// GlobalMinCut answers the directed global minimum cut from the memo,
// keyed like DirectedGirth. The zero-cut early exit (a graph that is not
// strongly connected) memoizes too: its strong-connectivity charge is a
// per-query phase and replays like any other.
func (e *Engine) GlobalMinCut(p *artifact.Prepared, opt core.Options, led *ledger.Ledger) (*core.GlobalCutResult, error) {
	k := p.ResolveLeafLimit(opt.LeafLimit)
	e.mu.Lock()
	m := e.cut[k]
	e.mu.Unlock()
	if m != nil {
		mMemoHits["globalmincut"].Inc()
		led.Merge(m.led)
		return copyCut(m.res), nil
	}
	mMemoMisses["globalmincut"].Inc()
	t0 := time.Now()
	scratch := ledger.New()
	res, err := core.GlobalMinCut(p, opt, scratch)
	led.Merge(scratch)
	if err != nil {
		return nil, err
	}
	mDecode["globalmincut"].Observe(time.Since(t0))
	e.mu.Lock()
	if e.cut[k] == nil {
		e.cut[k] = &cutMemo{res: res, led: queryOnly(scratch)}
	}
	e.mu.Unlock()
	return copyCut(res), nil
}

func copyCut(res *core.GlobalCutResult) *core.GlobalCutResult {
	return &core.GlobalCutResult{
		Value:    res.Value,
		Side:     append([]bool(nil), res.Side...),
		CutEdges: append([]int(nil), res.CutEdges...),
	}
}

// queryOnly extracts the replayable record of a first run: its Query-scope
// entries. Build-scope entries (a substrate the first query happened to
// trigger) are one-time costs that later queries must not repeat — on the
// simulated route they would hit the warm substrate cache and charge
// nothing.
func queryOnly(l *ledger.Ledger) *ledger.Ledger {
	out := ledger.New()
	out.MergeScoped(l, ledger.Query)
	return out
}
