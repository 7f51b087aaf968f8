package planarflow

import (
	"context"
	"errors"
	"fmt"

	"planarflow/internal/artifact"
	"planarflow/internal/core"
	"planarflow/internal/decode"
	"planarflow/internal/ledger"
)

// PreparedGraph is a graph bundled with its reusable preprocessing
// artifacts: the Bounded Diameter Decomposition and the primal/dual distance
// labelings of §5, and the minor-aggregation simulator's prices on the dual
// (§4.2), built lazily on first use and shared by every subsequent query.
// The paper's observation that the Õ(D)-bit labels "actually allow
// computation of all pairs shortest paths" (§5) makes this split natural:
// construction costs Õ(D²) rounds once, queries decode locally.
//
// Do, DoBatch and Warm are safe for concurrent use; a substrate needed by
// many in-flight queries is built exactly once and the others block until
// it is ready. Every Answer reports the Build/Query split: the query that
// triggered a construction carries its cost (Build > 0), queries served
// from the warm artifact report Build == 0. The point queries (dist,
// dirdist, dualdist) decode locally at zero per-query round cost.
type PreparedGraph struct {
	gr  *Graph
	art *artifact.Prepared

	// eng is the decode engine: the default execution route of the
	// label-backed families (dualsssp, girth, dirgirth, globalmincut),
	// core's route memoized, so a repeated query replays the identical
	// charged-rounds record instead of re-running it. Shared by every
	// WithContext view, like the substrates it decodes from.
	eng *decode.Engine

	// buildSink absorbs the build charges of Warm and of DoBatch's warmup
	// pass, whose signatures carry no Rounds. It only ever receives entries
	// when a substrate is actually constructed, so it stays bounded under
	// serving; the cumulative cost is reported by BuildRounds.
	buildSink *ledger.Ledger
}

// Prepare wraps gr for repeated serving. Nothing is built until the first
// query needs it, so Prepare itself only checks the weight contract
// (CheckWeightRange, O(m)).
func Prepare(gr *Graph) (*PreparedGraph, error) {
	if gr == nil || gr.g == nil {
		return nil, fmt.Errorf("planarflow: Prepare: %w", ErrNilGraph)
	}
	if err := gr.CheckWeightRange(); err != nil {
		return nil, err
	}
	return &PreparedGraph{gr: gr, art: artifact.New(gr.g), eng: decode.New(), buildSink: ledger.New()}, nil
}

// WithContext returns a request-scoped view over the same substrate cache:
// queries on the view honor ctx at substrate-build checkpoints — a
// canceled waiter stops waiting, and a canceled builder abandons the
// half-built substrate (the next live query restarts it). Queries
// interrupted this way return an error wrapping ctx's error
// (context.Canceled / context.DeadlineExceeded). Substrates built through
// any view are shared by all views of the same PreparedGraph.
func (p *PreparedGraph) WithContext(ctx context.Context) *PreparedGraph {
	return &PreparedGraph{gr: p.gr, art: p.art.WithContext(ctx), eng: p.eng, buildSink: p.buildSink}
}

// Graph returns the underlying graph.
func (p *PreparedGraph) Graph() *Graph { return p.gr }

// SubstrateStat describes one built substrate of a prepared graph: which
// artifact it is, its estimated resident footprint, and its one-time
// construction cost in simulated rounds.
type SubstrateStat struct {
	Kind        string `json:"kind"`              // "bdd" | "dual-label" | "minoragg" | "primal-label"
	Lengths     string `json:"lengths,omitempty"` // length function of a labeling
	LeafLimit   int    `json:"leaf_limit"`
	Bytes       int64  `json:"bytes"`
	BuildRounds int64  `json:"build_rounds"`
}

// PreparedStats is a point-in-time snapshot of everything a PreparedGraph
// has built: the per-substrate breakdown plus the totals a serving layer
// budgets by.
type PreparedStats struct {
	Substrates []SubstrateStat `json:"substrates"`
	// Bytes is the total estimated resident footprint: the substrates and
	// the caches queries build beside them (exact max-flow's λ = 0 state),
	// which are no substrate and never snapshotted.
	Bytes       int64 `json:"bytes"`
	BuildRounds int64 `json:"build_rounds"` // total one-time construction rounds
}

// Stats reports the substrates built so far (in-flight builds appear once
// they publish), with estimated resident bytes and build rounds per
// substrate. The byte figures are accounting estimates for memory
// budgeting and eviction policy, not exact heap measurements.
func (p *PreparedGraph) Stats() PreparedStats {
	as := p.art.Stats()
	st := PreparedStats{Bytes: as.Bytes, BuildRounds: as.BuildRounds}
	for _, s := range as.Substrates {
		st.Substrates = append(st.Substrates, SubstrateStat{
			Kind: s.Kind, Lengths: s.LengthsName, LeafLimit: s.LeafLimit,
			Bytes: s.Bytes, BuildRounds: s.BuildRounds,
		})
	}
	return st
}

// Totals returns Stats' totals — footprint bytes, substrate count and
// build rounds — in O(1), without building the per-substrate list: what a
// serving layer re-reads after every query to account a bundle's growth.
func (p *PreparedGraph) Totals() (bytes int64, substrates int, buildRounds int64) {
	return p.art.Totals()
}

// BuildRounds reports the cumulative cost of every substrate built so far
// (each BDD and labeling counted once, however many queries shared it).
func (p *PreparedGraph) BuildRounds() Rounds {
	return roundsOf(p.art.BuildLedger())
}

func (p *PreparedGraph) checkVertices(vs ...int) error {
	for _, v := range vs {
		if v < 0 || v >= p.gr.N() {
			return fmt.Errorf("planarflow: vertex %d out of [0,%d): %w", v, p.gr.N(), ErrVertexRange)
		}
	}
	return nil
}

func (p *PreparedGraph) checkFaces(fs ...int) error {
	for _, f := range fs {
		if f < 0 || f >= p.gr.NumFaces() {
			return fmt.Errorf("planarflow: face %d out of [0,%d): %w", f, p.gr.NumFaces(), ErrFaceRange)
		}
	}
	return nil
}

func (p *PreparedGraph) checkPair(s, t int) error {
	if err := p.checkVertices(s, t); err != nil {
		return err
	}
	if s == t {
		return fmt.Errorf("planarflow: s=t=%d: %w", s, ErrSameVertex)
	}
	return nil
}

// sentinelErr translates core's typed precondition errors into the public
// sentinels, so each precondition is computed exactly once (in core) while
// callers still dispatch with the planarflow sentinels.
func sentinelErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrNotSTPlanar):
		return fmt.Errorf("planarflow: %v: %w", err, ErrSameFaceRequired)
	case errors.Is(err, core.ErrNegativeWeight):
		return fmt.Errorf("planarflow: %v: %w", err, ErrNegativeWeight)
	case errors.Is(err, core.ErrNonPositiveWeight):
		return fmt.Errorf("planarflow: %v: %w", err, ErrNonPositiveWeight)
	case errors.Is(err, core.ErrFaceRange):
		return fmt.Errorf("planarflow: %v: %w", err, ErrFaceRange)
	default:
		return err
	}
}
