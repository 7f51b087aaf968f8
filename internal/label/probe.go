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
	return pl.probe(ctx, k, lengths, led)
}

// kernels recycles the whole-graph kernels of probes and SSSPFrom.
var kernels = sync.Pool{New: func() any { return new(kernel) }}

// probe is a labeling pass executed as a check and charged as the pass: the
// verdict is k's potentials over the whole graph (left in k for rows on
// true). Every entry the pass charges is a function of the plan, the active
// darts and where a negative cycle stops it, so a completed pass is charged
// from levelCosts (the pass driven for its charges alone, polling ctx before
// every bag) and an aborted one TreeDepth + 1 at abortBag. A canceled ctx
// returns its error, charging nothing.
func (pl *plan) probe(ctx context.Context, k *kernel, lengths []int64, led *ledger.Ledger) (bool, error) {
	levelCost, err := pl.levelCosts(ctx, lengths)
	if err != nil {
		return false, err
	}
	k.load(pl.wholeGraph(), lengths)
	if k.potentials() {
		pl.chargeLevels(levelCost, led)
		return true, nil
	}
	id, err := pl.abortBag(ctx, k, lengths)
	if err != nil {
		return false, err
	}
	led.Charge(pl.v.phase+"/negative-cycle-abort", int64(pl.t.Bags[id].TreeDepth+1))
	return false, nil
}

// abortBag returns the bag the labeling pass stops at under lengths that
// close a negative cycle in the whole graph: the largest-ID bag whose own
// graph closes one. The pass visits bags in descending ID, children first; a
// leaf's step runs on its own graph, and an internal bag's DDG holds its
// children's distances between the separator keys, which include every key
// both children share (F_X in the dual, §5.3), so, its children free of
// negative cycles, it closes one exactly when the bag's own graph does. Only
// bags whose graph holds a negative arc are checked (ownGraph); the root's is
// the whole graph. ctx is polled before every bag, as the pass polls it.
func (pl *plan) abortBag(ctx context.Context, k *kernel, lengths []int64) (int, error) {
	t, v := pl.t, pl.v
	var neg []planar.Dart
	for d, l := range lengths {
		if l < 0 {
			neg = append(neg, planar.Dart(d))
		}
	}
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
