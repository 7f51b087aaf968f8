package label

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// Search is core.MaxFlow's λ search over one tree, one λ = 0 state and one
// s–t path: the probes of Feasible at every λ, and SSSPFrom at λ*, on the
// residual lengths base − λ on the path's darts and + λ on their reverses.
// Those differ from base only on the path, so the whole dual's kernel is
// loaded with base once and each λ rewrites the path's arcs and seeds the
// worklist at the tails of the ones it makes negative — base is
// non-negative, so no other arc relaxes from h = 0. The first run loads
// it, so a search whose λs are all decided by Infeasible never does. Base
// is finite, so every dart is active and a completed probe charges the
// plan's activeCost; an aborted one charges what Feasible's does. The
// potentials of the last feasible λ are kept, so SSSP at it runs no second
// Bellman–Ford. A Search is used by one goroutine and must be closed.
type Search struct {
	pl    *plan
	base  *Gathered
	k     kernel
	path  []pathArc
	lens  []int64 // per dart: base with the last λ pushed along the path
	neg   []planar.Dart
	saved []int64 // the potentials of the last feasible λ, saved
	// savedAt is the λ saved's potentials are for, -1 for none.
	savedAt int64
	// reload is set while k holds other than lens: before the first run,
	// after abortBag loaded bags' own graphs into it, or SSSP reduced its
	// lengths.
	reload bool
	// abort is the bag the last infeasible λ's pass aborted at.
	abort int
}

// pathArc is a dart of the path: its arc and its reverse's, their base
// lengths, and its tail.
type pathArc struct {
	d              planar.Dart
	fw, bw         int32
	fwBase, bwBase int64
	tailKey        int32
}

// searches recycles Search values, their kernels and buffers with them.
var searches = sync.Pool{New: func() any { return new(Search) }}

// Gathered is a per-dart length vector gathered into the arc order of a
// view's whole graph over one tree, every length checked non-negative: the
// kernel's lengths at the start of a probe or row, copied in instead of
// gathered and checked on every query. It keeps lengths, not a copy;
// neither may change.
type Gathered struct {
	pl      *plan
	lengths []int64 // per dart
	arcs    []int64 // per arc of pl.whole
	finite  bool    // every length is below spath.Inf
}

// Gather gathers lengths over v's whole graph of t. The error is planOf's,
// or reports a negative length.
func Gather(v View, t *bdd.BDD, lengths []int64) (*Gathered, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	sk := pl.wholeGraph()
	g := &Gathered{pl: pl, lengths: lengths, arcs: make([]int64, len(sk.dart)), finite: true}
	for i, d := range sk.dart {
		l := lengths[d]
		if l < 0 {
			return nil, fmt.Errorf("label: gathered length %d is negative", l)
		}
		g.arcs[i], g.finite = l, g.finite && l < spath.Inf
	}
	return g, nil
}

// Len returns the number of gathered lengths, one per arc of the whole graph.
func (g *Gathered) Len() int { return len(g.arcs) }

// NewSearch starts the λ search over the dual under base, the lengths at
// λ = 0 gathered over a tree's dual, which must be finite, pushing along
// path, whose darts are distinct edges'. The error reports a base of
// another view or with an infinite length.
func NewSearch(base *Gathered, path []planar.Dart) (*Search, error) {
	pl := base.pl
	if pl.v != views[Dual] || !base.finite {
		return nil, errors.New("label: search base is not finite lengths over the dual")
	}
	pl.costsOnce.Do(pl.costs)
	s := searches.Get().(*Search)
	s.pl, s.base, s.savedAt, s.reload = pl, base, -1, true
	s.lens = append(s.lens[:0], base.lengths...)
	s.path = s.path[:0]
	for _, d := range path {
		r := planar.Rev(d)
		a := pathArc{d: d, fw: pl.wholeArc[d], bw: pl.wholeArc[r], fwBase: base.lengths[d], bwBase: base.lengths[r]}
		if a.fw < 0 || a.bw < 0 {
			s.Close()
			return nil, fmt.Errorf("label: search path dart %d is not an arc of the dual", d)
		}
		from, _ := pl.v.ends(pl.t.G, d)
		a.tailKey = int32(from)
		s.path = append(s.path, a)
	}
	return s, nil
}

// Close returns the search's buffers for reuse; s must not be used again.
func (s *Search) Close() {
	s.pl, s.base = nil, nil
	searches.Put(s)
}

// pushLens writes the path's darts onto lens at their residual lengths at
// lambda and lists in neg the ones that are negative.
func (s *Search) pushLens(lambda int64) {
	s.neg = s.neg[:0]
	for _, a := range s.path {
		fw := a.fwBase - lambda
		s.lens[a.d], s.lens[planar.Rev(a.d)] = fw, a.bwBase+lambda
		if fw < 0 {
			s.neg = append(s.neg, a.d)
		}
	}
}

// push readies k for a run at lambda: pushLens, the whole graph reloaded
// from base if k held anything else — lens differs from it only on the
// path — then the path's arcs, in k, as lens has them.
func (s *Search) push(lambda int64) {
	s.pushLens(lambda)
	k := &s.k
	if s.reload {
		k.loadGathered(s.pl.wholeGraph(), s.base.arcs)
		s.reload = false
	}
	for _, a := range s.path {
		k.length[a.fw], k.length[a.bw] = s.lens[a.d], s.lens[planar.Rev(a.d)]
	}
}

// Feasible is label.Feasible at lambda: the verdict, led charged what
// ComputeContext charges over the residual lengths, and a canceled ctx's
// error.
func (s *Search) Feasible(ctx context.Context, lambda int64, led *ledger.Ledger) (bool, error) {
	k := &s.k
	s.push(lambda)
	k.clearTree()
	for _, a := range s.path {
		if k.length[a.fw] < 0 {
			k.seed(a.tailKey)
		}
	}
	abort, err := s.pl.probe(ctx, k, s.lens, s.neg, s.pl.activeCost, led)
	switch {
	case err != nil:
		s.reload = true
		return false, err
	case abort < 0:
		k.h, s.saved, s.savedAt = s.saved, k.h, lambda
	default:
		s.reload, s.abort = true, abort
	}
	return abort < 0, nil
}

// Infeasible is Feasible at a lambda the caller knows to be infeasible
// (core.MaxFlow's λ = 1 when no unit of flow gets from s to t), without its
// Bellman–Ford over the whole dual: only abortBag runs, on the residual
// lengths, and led is charged what Feasible's abort charges. The error is
// a canceled ctx's.
func (s *Search) Infeasible(ctx context.Context, lambda int64, led *ledger.Ledger) error {
	s.pushLens(lambda)
	abort, err := s.pl.abort(ctx, &s.k, s.lens, s.neg, led)
	s.reload, s.abort = true, abort
	return err
}

// SSSP is SSSPFrom at lambda, the last λ Feasible found feasible, with the
// pass uncharged — λ's probe charged it — though ctx is polled before every
// bag as the pass polls it: λ's saved potentials reduce the residual
// lengths, and one row from source answers. It charges the tree marking
// but marks none — core.MaxFlow reads only Dist — so TreeDart is nil.
func (s *Search) SSSP(ctx context.Context, lambda int64, source int, led *ledger.Ledger) (*SSSPResult, error) {
	if lambda != s.savedAt {
		return nil, errors.New("label: search SSSP at a λ not last found feasible")
	}
	for range s.pl.t.Bags {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	k := &s.k
	s.push(lambda)
	k.h = append(k.h[:0], s.saved...)
	k.reduce()
	s.reload = true
	return s.pl.ssspRow(k, s.lens, source, false, led), nil
}
