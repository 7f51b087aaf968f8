package planarflow

// The query plane: every query family of the paper is expressible as one
// first-class Query value, executed through one entry point. A Query is a
// validated tagged union — Kind selects the family, the argument fields are
// interpreted per family — and an Answer is the kind-discriminated result
// carrying the payload and the Build/Query rounds split. PreparedGraph.Do
// runs one query; DoBatch runs many with a bounded worker pool, a
// single-pass substrate warmup (each substrate any query in the batch needs
// is built exactly once, before fan-out) and per-query error isolation.
// Query and Do are the library's one query surface: there is no per-family
// function or method beside them, and the flowd wire protocol maps JSON
// requests straight onto Query — one request value, one execution path, at
// every layer.

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"planarflow/internal/artifact"
	"planarflow/internal/core"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
)

// QueryKind identifies a query family. The values double as the wire names
// of the flowd protocol, so a decoded request maps onto a Query without a
// translation table.
type QueryKind string

const (
	// QDist: shortest-path distance U -> V under undirected weight
	// semantics (decodes locally from the primal labeling).
	QDist QueryKind = "dist"
	// QDirectedDist: QDist with one-way edge semantics.
	QDirectedDist QueryKind = "dirdist"
	// QDualDist: shortest-path distance between faces U and V of the dual
	// graph (decodes locally from the dual labeling).
	QDualDist QueryKind = "dualdist"
	// QDualSSSP: single-source shortest paths in the dual graph from face
	// Source (Thm 2.1 / Lemma 2.2).
	QDualSSSP QueryKind = "dualsssp"
	// QMaxFlow: exact maximum st-flow, s=U, t=V (Thm 1.2).
	QMaxFlow QueryKind = "maxflow"
	// QMinSTCut: exact directed minimum st-cut, s=U, t=V (Thm 6.1).
	QMinSTCut QueryKind = "minstcut"
	// QSTFlow: (1-Eps)-approximate maximum st-flow with s=U, t=V on a
	// common face (Thm 1.3); Eps=0 runs the exact oracle.
	QSTFlow QueryKind = "stflow"
	// QSTCut: the corresponding (approximate) minimum st-cut (Thm 6.2).
	QSTCut QueryKind = "stcut"
	// QGirth: weighted girth (Thm 1.7). No arguments.
	QGirth QueryKind = "girth"
	// QDirectedGirth: minimum weight of a directed cycle via the SSSP/BDD
	// route of [36]. No arguments.
	QDirectedGirth QueryKind = "dirgirth"
	// QGlobalMinCut: directed global minimum cut (Thm 1.5). No arguments.
	QGlobalMinCut QueryKind = "globalmincut"
)

// QueryKinds lists every query family in serving order. Wire surfaces
// (flowd's op set) derive their vocabulary from this slice.
var QueryKinds = []QueryKind{
	QDist, QDirectedDist, QDualDist, QDualSSSP,
	QMaxFlow, QMinSTCut, QSTFlow, QSTCut,
	QGirth, QDirectedGirth, QGlobalMinCut,
}

var queryKindSet = func() map[QueryKind]bool {
	m := make(map[QueryKind]bool, len(QueryKinds))
	for _, k := range QueryKinds {
		m[k] = true
	}
	return m
}()

// Query is one point query against a prepared graph: a tagged union whose
// Kind selects the family and whose argument fields are read per family
// (U/V are vertices for the primal families, faces for the dual ones).
// Construct queries with the per-family constructors (DistQuery,
// MaxFlowQuery, ...) and refine them with the With* options; the zero
// Query is invalid.
type Query struct {
	Kind   QueryKind `json:"kind"`
	U      int       `json:"u,omitempty"`
	V      int       `json:"v,omitempty"`
	Source int       `json:"source,omitempty"`
	Eps    float64   `json:"eps,omitempty"`

	// LeafLimit overrides the BDD leaf-bag bound for the families that
	// decode from a BDD-backed substrate (0 = the paper's Θ(D log n)
	// default). Distinct leaf limits key distinct substrates.
	LeafLimit int `json:"leaf_limit,omitempty"`
	// NoPhases drops the per-phase rounds breakdown from the Answer — the
	// rounds-accounting detail knob for serving paths that only consume
	// the totals.
	NoPhases bool `json:"no_phases,omitempty"`
	// Simulated sends the label-backed families (dualsssp, girth,
	// dirgirth, globalmincut) straight to the simulated CONGEST route,
	// bypassing the decode engine's memo of that same route. The two
	// return bit-identical answers and rounds; this is the library's
	// reference route for tests and audits, and no serving surface sets
	// it. Families without an engine route ignore it.
	Simulated bool `json:"simulated,omitempty"`
}

// DistQuery asks for the undirected shortest-path distance from u to v.
func DistQuery(u, v int) Query { return Query{Kind: QDist, U: u, V: v} }

// DirectedDistQuery asks for the one-way shortest-path distance u -> v.
func DirectedDistQuery(u, v int) Query { return Query{Kind: QDirectedDist, U: u, V: v} }

// DualDistQuery asks for the distance between faces f1 and f2 of the dual.
func DualDistQuery(f1, f2 int) Query { return Query{Kind: QDualDist, U: f1, V: f2} }

// DualSSSPQuery asks for shortest paths in the dual from sourceFace.
func DualSSSPQuery(sourceFace int) Query { return Query{Kind: QDualSSSP, Source: sourceFace} }

// MaxFlowQuery asks for the exact maximum st-flow.
func MaxFlowQuery(s, t int) Query { return Query{Kind: QMaxFlow, U: s, V: t} }

// MinSTCutQuery asks for the exact directed minimum st-cut.
func MinSTCutQuery(s, t int) Query { return Query{Kind: QMinSTCut, U: s, V: t} }

// STFlowQuery asks for a (1-eps)-approximate maximum st-flow with s and t
// on a common face; eps = 0 runs the exact oracle.
func STFlowQuery(s, t int, eps float64) Query { return Query{Kind: QSTFlow, U: s, V: t, Eps: eps} }

// STCutQuery asks for the corresponding (approximate) minimum st-cut.
func STCutQuery(s, t int, eps float64) Query { return Query{Kind: QSTCut, U: s, V: t, Eps: eps} }

// GirthQuery asks for the weighted girth.
func GirthQuery() Query { return Query{Kind: QGirth} }

// DirectedGirthQuery asks for the minimum weight of a directed cycle.
func DirectedGirthQuery() Query { return Query{Kind: QDirectedGirth} }

// GlobalMinCutQuery asks for the directed global minimum cut.
func GlobalMinCutQuery() Query { return Query{Kind: QGlobalMinCut} }

// WithLeafLimit returns a copy of q with the BDD leaf limit overridden.
func (q Query) WithLeafLimit(leafLimit int) Query {
	q.LeafLimit = leafLimit
	return q
}

// WithoutPhases returns a copy of q whose Answer omits the per-phase
// rounds breakdown.
func (q Query) WithoutPhases() Query {
	q.NoPhases = true
	return q
}

// WithSimulated returns a copy of q forced through the simulated CONGEST
// route instead of the decode engine.
func (q Query) WithSimulated() Query {
	q.Simulated = true
	return q
}

// Validate checks everything about q that does not need a graph: the kind
// is known, ids are non-negative, eps is in [0, 1) whatever the kind (only
// stflow and stcut read it, but a value no family could accept is refused
// on every one), the leaf limit is non-negative. Graph-dependent range
// checks (vertex < N, face < NumFaces) happen at execution time. Every
// violation wraps one of the public sentinel errors. It is the one rule
// set of every route: flowd's decoders, the fleet front and Do all refuse
// exactly what it refuses.
func (q Query) Validate() error {
	if !queryKindSet[q.Kind] {
		return fmt.Errorf("planarflow: query kind %q: %w", q.Kind, ErrUnknownQueryKind)
	}
	if q.U < 0 || q.V < 0 {
		kindErr := ErrVertexRange
		if q.Kind == QDualDist {
			kindErr = ErrFaceRange
		}
		return fmt.Errorf("planarflow: %s query with negative id (u=%d v=%d): %w", q.Kind, q.U, q.V, kindErr)
	}
	if q.Source < 0 {
		return fmt.Errorf("planarflow: %s query with negative source %d: %w", q.Kind, q.Source, ErrFaceRange)
	}
	if !(q.Eps >= 0 && q.Eps < 1) { // NaN included
		return fmt.Errorf("planarflow: eps=%v: %w", q.Eps, ErrEpsilonRange)
	}
	if q.LeafLimit < 0 {
		return fmt.Errorf("planarflow: leaf limit %d: %w", q.LeafLimit, ErrLeafLimitRange)
	}
	return nil
}

// Substrate identifies one reusable prepared artifact — the unit Warm
// prefetches and DoBatch's warmup pass builds before fan-out.
type Substrate string

const (
	// SubstrateBDD is the Bounded Diameter Decomposition (§5.1), the
	// substrate of the exact flow/cut families and of every labeling.
	SubstrateBDD Substrate = "bdd"
	// SubstratePrimalUndirected is the primal distance labeling under
	// undirected weight semantics (dist queries).
	SubstratePrimalUndirected Substrate = "primal-undirected"
	// SubstratePrimalDirected is the one-way primal labeling (dirdist,
	// directed girth).
	SubstratePrimalDirected Substrate = "primal-directed"
	// SubstrateDualUndirected is the dual labeling under undirected
	// semantics (dualdist, dual SSSP).
	SubstrateDualUndirected Substrate = "dual-undirected"
	// SubstrateDualDirected is the one-way dual labeling (directed
	// distance oracles).
	SubstrateDualDirected Substrate = "dual-directed"
	// SubstrateDualFreeReversal is the dual labeling under the w/0 length
	// function of directed global minimum cut (§7).
	SubstrateDualFreeReversal Substrate = "dual-free-reversal"
	// SubstrateMinorAgg is the price card of the minor-aggregation
	// simulator on the dual (§4.2): the cost of one part-wise aggregation
	// measured on the graph's Ĝ, which prices every round of girth, stflow
	// and stcut.
	SubstrateMinorAgg Substrate = "minoragg"
)

// Substrates returns the reusable substrates q decodes from, in build
// order (a labeling implies the BDD it is built over, so the BDD is not
// repeated).
func (q Query) Substrates() []Substrate {
	switch q.Kind {
	case QDist:
		return []Substrate{SubstratePrimalUndirected}
	case QDirectedDist, QDirectedGirth:
		return []Substrate{SubstratePrimalDirected}
	case QDualDist, QDualSSSP:
		return []Substrate{SubstrateDualUndirected}
	case QMaxFlow, QMinSTCut:
		return []Substrate{SubstrateBDD}
	case QGlobalMinCut:
		return []Substrate{SubstrateDualFreeReversal}
	case QGirth, QSTFlow, QSTCut:
		return []Substrate{SubstrateMinorAgg}
	default:
		return nil
	}
}

// Answer is the result of one query: the kind-discriminated payload plus
// the Build/Query rounds split. Which fields are set depends on Kind:
//
//	dist, dirdist, dualdist   Value (Inf = unreachable)
//	dualsssp                  Dist (per face), or NegCycle
//	maxflow                   Value, Flow, Iterations, Rounds
//	minstcut                  Value, Side, Edges, Rounds
//	stflow                    Value, Flow, Rounds
//	stcut                     Value, Side, Edges, Rounds
//	girth, dirgirth           Value (Inf = acyclic), Edges (girth only)
//	globalmincut              Value, Side, Edges, Rounds
//
// What the fields mean per family:
//
//   - maxflow: Flow[e] is the flow along edge e in its U→V direction, in
//     [0, Cap(e)].
//   - stflow: Flow[e] is signed, positive U→V (the graph is read as
//     undirected).
//   - minstcut, stcut: Side is the s-side and Edges the edges leaving it
//     (for stcut, every edge crossing it).
//   - globalmincut: Edges are the edges leaving Side.
//   - girth, dirgirth: Value is Inf when the graph has no (directed) cycle;
//     girth's Edges are one minimum-weight cycle.
//
// Every Answer reports the same Build/Query rounds split: the query that
// triggered a substrate construction carries its cost (Build > 0), queries
// served from warm substrates report Build == 0. The point-decode kinds
// (dist, dirdist, dualdist) decode locally at no per-query cost, so their
// Query rounds are always zero — a nonzero Rounds on them is pure Build.
type Answer struct {
	Kind  QueryKind `json:"kind"`
	Value int64     `json:"value"`

	Dist       []int64 `json:"dist,omitempty"`  // dualsssp: per-face distances
	Flow       []int64 `json:"flow,omitempty"`  // flow families: per-edge assignment
	Side       []bool  `json:"side,omitempty"`  // cut families: one side of the bisection
	Edges      []int   `json:"edges,omitempty"` // cut families: crossing edges; girth: cycle edges
	NegCycle   bool    `json:"neg_cycle,omitempty"`
	Iterations int     `json:"iterations,omitempty"` // maxflow: feasibility probes the λ search ran

	Rounds Rounds `json:"rounds"`

	// Err is the per-query failure slot of DoBatch: entries of a batch
	// either carry a payload or an Err, never both. Do reports errors
	// through its own return value and leaves Err nil.
	Err error `json:"-"`
}

// Do executes one query against the prepared substrates, honoring ctx at
// substrate-build checkpoints (a nil ctx keeps the context the
// PreparedGraph is already bound to). It is the single execution entry
// point every caller and wire surface routes through.
func (p *PreparedGraph) Do(ctx context.Context, q Query) (*Answer, error) {
	return p.view(ctx).do(q)
}

// view rebinds p to ctx unless ctx is nil, in which case the existing
// binding (Prepare's background context, or WithContext's) is kept.
func (p *PreparedGraph) view(ctx context.Context) *PreparedGraph {
	if ctx == nil {
		return p
	}
	return p.WithContext(ctx)
}

// do dispatches one validated query to its execution route. The
// label-backed families (dualsssp, girth, dirgirth, globalmincut) default
// to the decode engine, which is the simulated CONGEST route memoized,
// and run that route unmemoized only when q.Simulated is set; the two
// are bit-identical in payload and rounds (decode_test.go holds them to
// that). The flow/cut families (maxflow, minstcut, stflow, stcut) are
// always algorithmic: their lengths depend on (s, t), so there is nothing
// to decode from, and none labels per query (maxflow's probes and
// minstcut's residual SSSP are kernel runs charged as the passes they stand
// for). Every branch ends in the shared rounds tail, so every Answer
// reports the same Build/Query split.
func (p *PreparedGraph) do(q Query) (*Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	a := &Answer{Kind: q.Kind}
	opt := core.Options{LeafLimit: q.LeafLimit}
	led := ledger.New()
	switch q.Kind {
	case QDist, QDirectedDist:
		if err := p.checkVertices(q.U, q.V); err != nil {
			return nil, err
		}
		kind := artifact.Undirected
		if q.Kind == QDirectedDist {
			kind = artifact.Directed
		}
		la, err := p.art.PrimalLabels(kind, q.LeafLimit, led)
		if err != nil {
			return nil, fmt.Errorf("planarflow: %w", err)
		}
		if la.NegCycle {
			return nil, fmt.Errorf("planarflow: %w", ErrNegativeCycle)
		}
		a.Value = la.Dist(q.U, q.V)

	case QDualDist:
		if err := p.checkFaces(q.U, q.V); err != nil {
			return nil, err
		}
		la, err := p.art.DualLabels(artifact.Undirected, q.LeafLimit, led)
		if err != nil {
			return nil, fmt.Errorf("planarflow: %w", err)
		}
		if la.NegCycle {
			return nil, fmt.Errorf("planarflow: %w", ErrNegativeCycle)
		}
		a.Value = la.Dist(q.U, q.V)

	case QDualSSSP:
		if err := p.checkFaces(q.Source); err != nil {
			return nil, err
		}
		var res *label.SSSPResult
		var err error
		if q.Simulated {
			res, err = core.DualSSSP(p.art, q.Source, opt, led)
		} else {
			res, err = p.eng.DualSSSP(p.art, q.Source, q.LeafLimit, led)
		}
		if err != nil {
			return nil, sentinelErr(err)
		}
		if res.NegCycle {
			a.NegCycle = true
		} else {
			a.Dist = res.Dist
		}

	case QMaxFlow:
		if err := p.checkPair(q.U, q.V); err != nil {
			return nil, err
		}
		res, err := core.MaxFlow(p.art, q.U, q.V, opt, led)
		if err != nil {
			return nil, err
		}
		a.Value, a.Flow, a.Iterations = res.Value, res.Flow, res.Iterations

	case QMinSTCut:
		if err := p.checkPair(q.U, q.V); err != nil {
			return nil, err
		}
		res, err := core.MinSTCut(p.art, q.U, q.V, opt, led)
		if err != nil {
			return nil, err
		}
		a.Value, a.Side, a.Edges = res.Value, res.Side, res.CutEdges

	case QSTFlow:
		// Validate ranged eps; the st-planarity precondition (s, t on a
		// common face) is checked by core, which needs the common face
		// anyway, and sentinelErr maps its error.
		if err := p.checkPair(q.U, q.V); err != nil {
			return nil, err
		}
		res, err := core.STPlanarMaxFlow(p.art, q.U, q.V, q.Eps, led)
		if err != nil {
			return nil, sentinelErr(err)
		}
		a.Value, a.Flow = res.Value, res.Flow

	case QSTCut:
		if err := p.checkPair(q.U, q.V); err != nil {
			return nil, err
		}
		res, err := core.STPlanarMinCut(p.art, q.U, q.V, q.Eps, led)
		if err != nil {
			return nil, sentinelErr(err)
		}
		a.Value, a.Side, a.Edges = res.Value, res.Side, res.CutEdges

	case QGirth:
		var res *core.GirthResult
		var err error
		if q.Simulated {
			res, err = core.Girth(p.art, led)
		} else {
			res, err = p.eng.Girth(p.art, led)
		}
		if err != nil {
			return nil, sentinelErr(err)
		}
		a.Value, a.Edges = res.Weight, res.CycleEdges

	case QDirectedGirth:
		var w int64
		var err error
		if q.Simulated {
			w, err = core.DirectedGirth(p.art, opt, led)
		} else {
			w, err = p.eng.DirectedGirth(p.art, opt, led)
		}
		if err != nil {
			return nil, sentinelErr(err)
		}
		a.Value = w

	case QGlobalMinCut:
		var res *core.GlobalCutResult
		var err error
		if q.Simulated {
			res, err = core.GlobalMinCut(p.art, opt, led)
		} else {
			res, err = p.eng.GlobalMinCut(p.art, opt, led)
		}
		if err != nil {
			return nil, sentinelErr(err)
		}
		a.Value, a.Side, a.Edges = res.Value, res.Side, res.CutEdges
	}
	if q.NoPhases {
		a.Rounds = roundsTotalsOf(led)
	} else {
		a.Rounds = roundsOf(led)
	}
	return a, nil
}

// BatchOptions parameterizes DoBatch.
type BatchOptions struct {
	// Workers bounds how many queries run concurrently. 0 means
	// min(len(queries), GOMAXPROCS); 1 executes the batch sequentially.
	Workers int
}

// DoBatch executes queries with a bounded worker pool and returns one
// Answer per query, index-aligned. Failures are isolated per query: a
// query that fails gets an Answer whose Err is set while the others
// proceed; the batch-level error is non-nil only when the whole batch is
// doomed (the context was canceled during warmup), and even then the
// per-query Answers are returned with their Errs set.
//
// Before fan-out, a warmup pass builds every substrate the batch needs
// exactly once, so no query of the batch pays or waits for a build
// triggered by another: warm-batch Answers report Build == 0, and the
// construction cost is visible through BuildRounds, exactly as for
// point queries.
func (p *PreparedGraph) DoBatch(ctx context.Context, queries []Query, opt BatchOptions) ([]*Answer, error) {
	view := p.view(ctx)
	answers := make([]*Answer, len(queries))
	if len(queries) == 0 {
		return answers, nil
	}

	// Validate up front: invalid queries are settled here and contribute
	// nothing to the warmup set.
	runnable := make([]int, 0, len(queries))
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			answers[i] = &Answer{Kind: q.Kind, Err: err}
			continue
		}
		runnable = append(runnable, i)
	}

	// Single-pass warmup: the union of substrates the runnable queries
	// decode from, each built exactly once before fan-out. A warmup
	// failure can only be a context cancellation, which dooms every
	// remaining query — settle them all and surface the batch error.
	if err := view.warmFor(queries, runnable); err != nil {
		for _, i := range runnable {
			answers[i] = &Answer{Kind: queries[i].Kind, Err: err}
		}
		return answers, err
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runnable) {
		workers = len(runnable)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				a, err := view.do(queries[i])
				if err != nil {
					a = &Answer{Kind: queries[i].Kind, Err: err}
				}
				answers[i] = a
			}
		}()
	}
	for _, i := range runnable {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return answers, nil
}

// warmKey identifies one substrate build of a warmup pass: queries with
// different leaf limits key different substrates.
type warmKey struct {
	sub       Substrate
	leafLimit int
}

// warmFor builds the union of substrates needed by the runnable queries,
// each exactly once, in deterministic (first-use) order.
func (p *PreparedGraph) warmFor(queries []Query, runnable []int) error {
	seen := make(map[warmKey]bool)
	var order []warmKey
	for _, i := range runnable {
		for _, sub := range queries[i].Substrates() {
			k := warmKey{sub, queries[i].LeafLimit}
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
	}
	for _, k := range order {
		if err := p.warmOne(k.sub, k.leafLimit); err != nil {
			return err
		}
	}
	return nil
}

// Warm eagerly builds the given substrates so cold-start latency moves out
// of the first user query, honoring ctx at build checkpoints (nil keeps
// the current binding). With no arguments it prefetches the decode-heavy
// serving set — the BDD plus the undirected primal and dual labelings,
// the substrates of dist/dualdist/dualsssp traffic — and nothing else: the
// minor-aggregation prices (SubstrateMinorAgg) are built when named here or
// by the first girth, stflow or stcut. Construction cost is
// charged to the build ledger (visible via BuildRounds and Stats), so
// queries served afterwards report Build == 0. A labeling that detects a
// negative cycle is still considered warm: Warm returns nil and the
// queries that decode from it report ErrNegativeCycle individually.
func (p *PreparedGraph) Warm(ctx context.Context, substrates ...Substrate) error {
	view := p.view(ctx)
	if len(substrates) == 0 {
		substrates = []Substrate{SubstrateBDD, SubstratePrimalUndirected, SubstrateDualUndirected}
	}
	for _, sub := range substrates {
		if err := view.warmOne(sub, 0); err != nil {
			return err
		}
	}
	return nil
}

// warmOne builds one substrate at the given leaf limit, charging the
// construction to the build sink.
func (p *PreparedGraph) warmOne(sub Substrate, leafLimit int) error {
	var err error
	switch sub {
	case SubstrateBDD:
		_, err = p.art.Tree(leafLimit, p.buildSink)
	case SubstratePrimalUndirected:
		_, err = p.art.PrimalLabels(artifact.Undirected, leafLimit, p.buildSink)
	case SubstratePrimalDirected:
		_, err = p.art.PrimalLabels(artifact.Directed, leafLimit, p.buildSink)
	case SubstrateDualUndirected:
		_, err = p.art.DualLabels(artifact.Undirected, leafLimit, p.buildSink)
	case SubstrateDualDirected:
		_, err = p.art.DualLabels(artifact.Directed, leafLimit, p.buildSink)
	case SubstrateDualFreeReversal:
		_, err = p.art.DualLabels(artifact.FreeReversal, leafLimit, p.buildSink)
	case SubstrateMinorAgg:
		_, err = p.art.MinorAgg(p.buildSink)
	default:
		return fmt.Errorf("planarflow: substrate %q: %w", sub, ErrUnknownSubstrate)
	}
	if err != nil {
		return fmt.Errorf("planarflow: warm %s: %w", sub, err)
	}
	return nil
}
