package label

import (
	"context"
	"slices"
	"sync"
	"unsafe"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// BagGraphs holds, for one tree and view, the CSR skeleton of each non-root
// bag's own graph (bagDarts; X* in the dual), where a probe looks for the bag
// its labeling pass would abort at: a leaf's is its plan skeleton, an
// internal bag's is built here, and the caller charges FootprintBytes for
// them. The root's is the plan's whole graph. Immutable and shared.
type BagGraphs struct {
	pl    *plan
	graph []skeleton // by bag ID; the root's is empty
}

// NewBagGraphs lays out the own graph of every bag of t in view v. The
// error is planOf's.
func NewBagGraphs(v View, t *bdd.BDD) (*BagGraphs, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	return pl.bagGraphs(), nil
}

func (pl *plan) bagGraphs() *BagGraphs {
	t := pl.t
	bg := &BagGraphs{pl: pl, graph: make([]skeleton, len(t.Bags))}
	pos := absent(pl.v.numKeys(t.G))
	for _, b := range t.Bags {
		switch {
		case b == t.Root:
		case b.IsLeaf():
			bg.graph[b.ID] = pl.bags[b.ID].leaf
		default:
			keys := pl.lay[b.ID].Keys
			for i, k := range keys {
				pos[k] = int32(i)
			}
			bg.graph[b.ID] = pl.skeletonOf(b, len(keys), pos)
			for _, k := range keys {
				pos[k] = -1
			}
		}
	}
	return bg
}

// FootprintBytes estimates what BagGraphs keeps beside the plan — the
// internal bags' skeletons and the index — at twice their arrays' sizes, as
// Labeling.FootprintBytes counts labels.
func (bg *BagGraphs) FootprintBytes() int64 {
	const (
		index = int64(2 * unsafe.Sizeof(int32(0)))
		dart  = int64(2 * unsafe.Sizeof(planar.Dart(0)))
	)
	b := int64(len(bg.graph)) * int64(2*unsafe.Sizeof(skeleton{}))
	for id, sk := range bg.graph {
		if !bg.pl.t.Bags[id].IsLeaf() {
			b += int64(len(sk.start)+len(sk.to))*index + int64(len(sk.dart))*dart
		}
	}
	return b
}

// Feasible reports whether the graph bg's view measures — G* in the dual,
// each λ of core.MaxFlow's search — is free of negative cycles under
// lengths: ComputeContext's NegCycle verdict, negated, without labeling. One
// kernel run over the whole graph decides it, and led is charged exactly
// what ComputeContext charges (plan.probe). lengths is not retained.
func Feasible(ctx context.Context, bg *BagGraphs, lengths []int64, led *ledger.Ledger) (bool, error) {
	k := kernels.Get().(*kernel)
	defer kernels.Put(k)
	return bg.pl.probe(ctx, k, lengths, bg, led)
}

// kernels recycles the whole-graph kernels of probes and SSSPFrom.
var kernels = sync.Pool{New: func() any { return new(kernel) }}

// probe is a labeling pass executed as a check and charged as the pass: the
// verdict is k's potentials over the whole graph (left in k for rows on
// true). Every entry the pass charges is a function of the plan, the active
// darts and where a negative cycle stops it, so a completed pass is charged
// from levelCosts (the pass driven for its charges alone, polling ctx before
// every bag) and an aborted one TreeDepth + 1 at abortBag. bg, nil when the
// caller keeps none, is built if a negative cycle needs it. A canceled ctx
// returns its error, charging nothing.
func (pl *plan) probe(ctx context.Context, k *kernel, lengths []int64, bg *BagGraphs, led *ledger.Ledger) (bool, error) {
	levelCost, err := pl.levelCosts(ctx, lengths)
	if err != nil {
		return false, err
	}
	k.load(pl.wholeGraph(), lengths)
	if k.potentials() {
		pl.chargeLevels(levelCost, led)
		return true, nil
	}
	if bg == nil {
		bg = pl.bagGraphs()
	}
	id, err := pl.abortBag(ctx, k, lengths, bg)
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
// bags whose graph holds a negative arc are checked; the root's is the whole
// graph. ctx is polled before every bag, as the pass polls it.
func (pl *plan) abortBag(ctx context.Context, k *kernel, lengths []int64, bg *BagGraphs) (int, error) {
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
		if k.load(&bg.graph[i], lengths); !k.potentials() {
			return i, nil
		}
	}
}
