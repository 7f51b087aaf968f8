package label

import (
	"context"
	"slices"
	"sync"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// Feasible reports whether the graph view v measures over t — G* in the
// dual, each λ of core.MaxFlow's search — is free of negative cycles under
// lengths: ComputeContext's NegCycle verdict, negated, without labeling. One
// kernel run over the whole graph decides it, and led is charged exactly
// what ComputeContext charges (plan.probe). The error is planOf's, or the
// context's. lengths is not retained.
func Feasible(ctx context.Context, v View, t *bdd.BDD, lengths []int64, led *ledger.Ledger) (bool, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return false, err
	}
	k := kernels.Get().(*kernel)
	defer kernels.Put(k)
	abort, err := pl.probeLengths(ctx, k, lengths, led)
	return abort < 0, err
}

// kernels recycles the whole-graph kernels of probes and SSSPFrom.
var kernels = sync.Pool{New: func() any { return new(kernel) }}

// probeLengths loads lengths over the whole graph into k and probes them,
// seeding the worklist from every negative arc.
func (pl *plan) probeLengths(ctx context.Context, k *kernel, lengths []int64, led *ledger.Ledger) (int, error) {
	k.load(pl.wholeGraph(), lengths)
	k.clearTree()
	var neg []planar.Dart
	for u := range k.n {
		for i, end := k.start[u], k.start[u+1]; i < end; i++ {
			if k.length[i] < 0 {
				k.seed(int32(u))
				neg = append(neg, k.dart[i])
			}
		}
	}
	return pl.probe(ctx, k, lengths, neg, nil, led)
}

// probe is a labeling pass executed as a check and charged as the pass. It
// returns the bag the pass aborts at, or -1 when it completes. The verdict
// is k's potentials over the whole graph, whose lengths (per dart: lengths)
// k holds and whose worklist is seeded at the tails of the negative arcs,
// the arcs of neg; on completion the potentials stay in k for rows. Every
// entry the pass charges is a function of the plan, the active darts and
// where a negative cycle stops it. So a completed pass is charged levelCost
// — nil for the pass driven for its charges alone (levelCosts), under
// lengths — polling ctx before every bag as the pass does, and an aborted
// one TreeDepth + 1 at abortBag, which polls the bags the pass reaches. A
// canceled ctx returns its error, charging nothing.
func (pl *plan) probe(ctx context.Context, k *kernel, lengths []int64, neg []planar.Dart, levelCost []int64, led *ledger.Ledger) (int, error) {
	pl.costsOnce.Do(pl.costs)
	if !k.settle() {
		return pl.abort(ctx, k, lengths, neg, led)
	}
	if levelCost == nil {
		var err error
		if levelCost, err = pl.levelCosts(ctx, lengths); err != nil {
			return 0, err
		}
	} else {
		for range pl.t.Bags {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
	}
	pl.chargeLevels(levelCost, led)
	return -1, nil
}

// abort is probe's verdict of a negative cycle: the bag the pass aborts at
// (abortBag), led charged TreeDepth + 1 at it.
func (pl *plan) abort(ctx context.Context, k *kernel, lengths []int64, neg []planar.Dart, led *ledger.Ledger) (int, error) {
	id, err := pl.abortBag(ctx, k, lengths, neg)
	if err != nil {
		return 0, err
	}
	led.Charge(pl.abortPhase, int64(pl.t.Bags[id].TreeDepth+1))
	return id, nil
}

// abortBag returns the bag the labeling pass stops at under lengths that
// close a negative cycle in the whole graph, neg their negative darts: the
// largest-ID bag whose own graph closes one. The pass visits bags in
// descending ID, children first; a leaf's step runs on its own graph, and
// an internal bag's DDG holds its children's distances between the
// separator keys, which include every key both children share (F_X in the
// dual, §5.3), so, its children free of negative cycles, it closes one
// exactly when the bag's own graph does. Only bags whose graph holds a
// negative arc are checked (ownGraph), loaded into k; the root's is the
// whole graph. ctx is polled before every bag, as the pass polls it.
func (pl *plan) abortBag(ctx context.Context, k *kernel, lengths []int64, neg []planar.Dart) (int, error) {
	t, v := pl.t, pl.v
	for i := len(t.Bags) - 1; ; i-- {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		b := t.Bags[i]
		if b == t.Root {
			return i, nil
		}
		if !slices.ContainsFunc(neg, func(d planar.Dart) bool { return v.holds(b, d) }) {
			continue
		}
		if k.load(pl.ownGraph(i), lengths); !k.potentials() {
			return i, nil
		}
	}
}
