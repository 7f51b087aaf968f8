package label

import (
	"context"
	"unsafe"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// DDGNode is a node of a bag's dense distance graph: the representative of
// a separator key inside one child bag (§5.3, Figure 13).
type DDGNode struct {
	Child int // index into bag.Children
	Key   int
}

// DDGArc is an arc of the base DDG, tagged with its provenance.
type DDGArc struct {
	From, To int32 // node indices
	// Dart is the primal dart for cross arcs (NoDart for clique and zero
	// arcs).
	Dart int32
	Len  int64
}

// BagDDG is the base dense distance graph of a non-leaf bag: nodes are the
// child representatives of separator keys; arcs are (i) within-child
// cliques weighted by decoded child-label distances, (ii) cross arcs (the
// dual S_X arcs), and (iii) zero arcs joining representatives of the same
// key.
type BagDDG struct {
	Bag *bdd.Bag
	// Nodes and RepsOf (below) depend on the tree alone; labelings over one
	// tree, computed or restored, share the plan's, read-only.
	Nodes []DDGNode
	Arcs  []DDGArc
	// Dist is the all-pairs matrix over Nodes (spath.Inf when unreachable);
	// its rows are slices of one slab.
	Dist [][]int64
	// RepsOf lists, by position in the bag's separator, the key's node
	// indices (1 or 2).
	RepsOf [][]int
}

// Labeling holds the labels of every key in every bag for one view and one
// length assignment.
type Labeling struct {
	T       *bdd.BDD
	Lengths []int64

	// NegCycle is true when the labelled graph contains a negative cycle;
	// labels are then invalid (Thm 2.1's failure report).
	NegCycle bool

	pl *plan
	// byBag holds, by bag ID, the bag's labels in key order (nil for a bag a
	// negative cycle kept the pass from reaching).
	byBag [][]Label
	ddgs  []*BagDDG // bag ID -> base DDG (nil for leaves); nil unless the view retains DDGs
}

// Compute runs the labeling algorithm of §5.3 bottom-up over the BDD, on
// the graph v names, charging the per-level broadcast costs from measured
// quantities.
func Compute(v View, t *bdd.BDD, lengths []int64, led *ledger.Ledger) *Labeling {
	la, _ := ComputeContext(context.Background(), v, t, lengths, led)
	return la
}

// ComputeContext is Compute with a cancellation checkpoint before every
// bag: a canceled context aborts the remaining bottom-up pass and returns
// ctx.Err() with a nil labeling, charging nothing (level charges are
// emitted only on completion).
func ComputeContext(ctx context.Context, v View, t *bdd.BDD, lengths []int64, led *ledger.Ledger) (*Labeling, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	return pl.label(ctx, lengths, led)
}

// SSSPFrom computes ComputeContext(ctx, v, t, lengths, passLed).SSSP(source,
// led) — the same distances, tree darts and ledger entries — without
// labeling: a probe (plan.probe) charges passLed the labeling pass, its
// kernel's row from source answers, and led is charged the SSSP over it.
// Shortest distances are unique, so the row is the full labeling's. A
// canceled ctx returns its error, charging nothing. lengths is not
// retained.
func SSSPFrom(ctx context.Context, v View, t *bdd.BDD, lengths []int64, source int, passLed, led *ledger.Ledger) (*SSSPResult, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	k := kernels.Get().(*kernel)
	defer kernels.Put(k)
	abort, err := pl.probeLengths(ctx, k, lengths, passLed)
	if err != nil {
		return nil, err
	}
	if abort >= 0 {
		return &SSSPResult{Source: source, NegCycle: true}, nil
	}
	k.reduce()
	return pl.ssspRow(k, lengths, source, led), nil
}

// SSSPNonNegative is SSSPFrom over gathered lengths, non-negative, whose
// labeling pass the caller charges itself (core.MinSTCut's λ* = 0 residual
// graph, whose pass the λ = 0 state recorded): h = 0 is a potential, so no
// Bellman–Ford runs, only the kernel's row from source, and led is charged
// the SSSP over the labeling. A canceled ctx, polled once, is the error.
func SSSPNonNegative(ctx context.Context, lengths *Gathered, source int, led *ledger.Ledger) (*SSSPResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pl := lengths.pl
	pl.costsOnce.Do(pl.costs)
	k := kernels.Get().(*kernel)
	defer kernels.Put(k)
	k.loadGathered(pl.wholeGraph(), lengths.arcs)
	k.h = grow(k.h, k.n)
	clear(k.h)
	return pl.ssspRow(k, lengths.lengths, source, led), nil
}

// ssspRow answers SSSP from source off k's potentials and reduced lengths
// over the whole graph, lengths per dart, and charges led the SSSP over the
// labeling (finishSSSP) with the words of source's root label.
func (pl *plan) ssspRow(k *kernel, lengths []int64, source int, led *ledger.Ledger) *SSSPResult {
	res := &SSSPResult{Source: source, Dist: make([]int64, k.n)} // the whole graph's nodes are the keys
	words := 0
	root := &pl.lay[pl.t.Root.ID]
	if pos := find(root.Keys, root.KeyOrder, source); pos >= 0 {
		words = pl.rootWords[pos]
		k.row(source, res.Dist, nil)
	} else {
		for i := range res.Dist {
			res.Dist[i] = spath.Inf
		}
	}
	pl.finishSSSP(res, lengths, words, led)
	return res
}

// levelCosts drives the labeling pass for its charges alone: bottom-up, with
// the pass's cancellation checkpoint before every bag, it folds each bag's
// cost into its level's maximum.
func (pl *plan) levelCosts(ctx context.Context, lengths []int64) ([]int64, error) {
	pl.costsOnce.Do(pl.costs)
	t := pl.t
	levelCost := make([]int64, t.Depth)
	for i := len(t.Bags) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := t.Bags[i]
		levelCost[b.Level] = max(levelCost[b.Level], pl.bagCost(i, lengths))
	}
	return levelCost, nil
}

// bagCost is the one cost model of the labeling pass: what bag i broadcasts
// under lengths, the plan's cost plus a leaf's active arcs.
func (pl *plan) bagCost(i int, lengths []int64) int64 {
	cost := pl.cost[i]
	for _, d := range pl.bags[i].leaf.dart {
		if lengths[d] < spath.Inf {
			cost++
		}
	}
	return cost
}

// chargeLevels charges a completed pass: each level's maximum bag cost, at
// the view's congestion.
func (pl *plan) chargeLevels(levelCost []int64, led *ledger.Ledger) {
	for lvl, cost := range levelCost {
		led.Charge(pl.levelPhase[lvl], pl.v.congestion*cost)
	}
}

// pass is one run of plan.label: the labeling it fills and the scratch its
// bags share. The scratch dies with the pass; the labeling keeps none of it.
type pass struct {
	la *Labeling
	k  kernel
	// toSep and fromSep collapse a bag's DDG matrix onto its separator: per
	// node r and separator position q, the distance from r to q's nearest
	// representative, and from q's nearest representative to r.
	toSep, fromSep []int64
}

// label is the one labeling pass: bottom-up over the bags, labeling every
// key of each.
func (pl *plan) label(ctx context.Context, lengths []int64, led *ledger.Ledger) (*Labeling, error) {
	t, v := pl.t, pl.v
	la := &Labeling{
		T:       t,
		Lengths: lengths,
		pl:      pl,
		byBag:   make([][]Label, len(t.Bags)),
	}
	// A labeling keeps its DDGs for the cycle enumerations.
	if v.retainsDDG {
		la.ddgs = make([]*BagDDG, len(t.Bags))
	}
	ps := &pass{la: la}
	pl.costsOnce.Do(pl.costs)

	// Process bags bottom-up (children have larger IDs than parents by
	// construction, so reverse ID order is a valid post-order). A completed
	// pass charges each level's maximum bagCost.
	levelCost := make([]int64, t.Depth)
	for i := len(t.Bags) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := t.Bags[i]
		if b.IsLeaf() {
			ps.computeLeaf(b)
		} else {
			ps.computeInternal(b)
		}
		if la.NegCycle {
			led.Charge(pl.abortPhase, int64(b.TreeDepth+1))
			return la, nil
		}
		levelCost[b.Level] = max(levelCost[b.Level], pl.bagCost(i, lengths))
	}
	pl.chargeLevels(levelCost, led)
	return la, nil
}

// Label returns the label of key k in bag b (nil if k is absent from b).
func (la *Labeling) Label(b *bdd.Bag, k int) *Label {
	lay := &la.pl.lay[b.ID]
	pos := find(lay.Keys, lay.KeyOrder, k)
	if pos < 0 || la.byBag[b.ID] == nil {
		return nil
	}
	return &la.byBag[b.ID][pos]
}

// RootLabel returns the label of key k in the root bag (the whole graph).
func (la *Labeling) RootLabel(k int) *Label { return la.Label(la.T.Root, k) }

// Dist returns dist(k1 -> k2) in the whole graph (spath.Inf if unreachable,
// or if either key has no dart and hence no label).
func (la *Labeling) Dist(k1, k2 int) int64 {
	if la.NegCycle {
		return spath.Inf
	}
	a, b := la.RootLabel(k1), la.RootLabel(k2)
	if a == nil || b == nil {
		return spath.Inf
	}
	return Decode(a, b)
}

// State exposes the labeling's internals — per bag, the labels of all its
// keys in layout order (nil for a bag a negative cycle kept the pass from
// reaching), and the retained base DDGs (nil when the view retains none),
// both indexed by bag ID. The returned slices are the live state, not
// copies; callers must treat them as read-only (a published labeling is
// immutable).
func (la *Labeling) State() (byBag [][]Label, ddgs []*BagDDG) {
	return la.byBag, la.ddgs
}

// View reports which graph the labeling measures.
func (la *Labeling) View() View { return la.pl.v.id }

// Separator returns the separator keys of non-leaf bag b in the order the
// labeling's plan fixes: the order of every To/From vector in b.
func (la *Labeling) Separator(b *bdd.Bag) []int { return la.pl.lay[b.ID].Sep }

// FootprintBytes estimates the resident memory of the labeling for eviction
// budgeting: every label, every vector entry, every retained DDG arc and
// matrix cell (Child pointers reference labels counted where they live and
// add nothing). The BDD the labeling decodes over is accounted separately.
//
// The constants are twice the records' sizes, read off unsafe.Sizeof (a
// Label is 48 bytes, an entry 8, a DDGArc 24), which puts the estimate at
// 1.78–1.96× the heap a labeling keeps alive, computed or restored
// (TestFootprintBoundsHeap and TestRestoredFootprintBoundsHeap hold it
// inside [1, 2]×). The second byte stands for what a resident bundle keeps
// alive beside its labelings and trees and the budget does not see — the
// per-tree plans, the graph's face tables, the decode engine's rows — and
// the factor was calibrated on bench/'s serve_churn while its resident set
// was budget-bound, so its ready_heap_mb measured how much real heap 38 MiB
// of estimate buys (seed 1; the map-backed labels before it read 29.6 MiB
// at 1.38–1.64×, hit ratio 0.30):
//
//	entry + label + arc     est/real     ready_heap_mb     hit ratio
//	 8 B + 128 B + 40 B     0.95         (fails the test)
//	14 B + 184 B + 64 B     1.64–1.65    32.8  (+10.8 %)    0.92
//	16 B + 208 B + 80 B     1.87–1.88    29.0  (−2.3 %)     0.86
//	16 B +  96 B + 48 B     1.78–1.96    27.1  (−5.7 %)     1.00
//
// The third row charged a 32-byte DDGArc at 80. With the last, the
// workload's 16 bundles come to 33.8 MiB of estimate, under the budget:
// every bundle stays resident, and that row measures capacity, not the
// factor. Charging the plans to the bundle instead (ROADMAP item 5) would
// let the factor come down.
func (la *Labeling) FootprintBytes() int64 {
	const (
		entry      = int64(2 * unsafe.Sizeof(int64(0)))
		labelFixed = int64(2 * unsafe.Sizeof(Label{}))
		arcSize    = int64(2 * unsafe.Sizeof(DDGArc{}))
	)
	var b int64
	for _, labels := range la.byBag {
		for i := range labels {
			b += labelFixed + int64(len(labels[i].vec))*entry
		}
	}
	for _, ddg := range la.ddgs {
		if ddg != nil {
			b += int64(len(ddg.Arcs))*arcSize + int64(len(ddg.Nodes)*len(ddg.Nodes))*entry
		}
	}
	return b
}

// PassWords is what a labeling pass of view v over t allocates, in 8-byte
// words: every bag's labels and vectors, a leaf's rows, an internal bag's
// DDG arcs and matrix. It reads the tree's plan alone, so it prices a pass
// before one runs (a snapshot decoder budgets its relabelling by it); the
// error is the plan's, for a tree bdd.Build could not have produced.
func PassWords(v View, t *bdd.BDD) (int64, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return 0, err
	}
	const (
		labelWords = int64(unsafe.Sizeof(Label{}) / 8)
		arcWords   = int64(unsafe.Sizeof(DDGArc{}) / 8)
	)
	var w int64
	for _, b := range t.Bags {
		lay, bp := &pl.lay[b.ID], &pl.bags[b.ID]
		keys := int64(len(lay.Keys))
		w += labelWords * keys
		if b.IsLeaf() {
			w += keys * keys
			continue
		}
		arcs := int64(len(bp.crossArcs) + len(bp.zeroArcs))
		for _, share := range bp.childSep {
			arcs += int64(len(share) * (len(share) - 1))
		}
		nodes := int64(len(lay.Nodes))
		w += 2*keys*int64(len(lay.Sep)) + nodes*nodes + arcWords*arcs
	}
	return w, nil
}

// computeLeaf gathers the whole bag (the "collect the entire graph" step),
// takes the negative-cycle verdict from the kernel's potentials, and computes
// the distances from each key — a kernel row is that key's LeafTo, reusing
// the rows of the keys before it (a key's position is its node). Its
// broadcast, TreeDepth + #nodes + #active arcs (pipelined), is
// plan.bagCost.
func (ps *pass) computeLeaf(b *bdd.Bag) {
	la := ps.la
	n := len(la.pl.lay[b.ID].Keys)
	ps.k.load(&la.pl.bags[b.ID].leaf, la.Lengths)
	if !ps.k.potentials() {
		la.NegCycle = true
		return
	}
	ps.k.reduce()
	rows := make([]int64, n*n)
	la.labelBag(b, func(l *Label) {
		at := int(l.pos) * n
		l.vec = rows[at : at+n : at+n]
		ps.k.row(int(l.pos), l.vec, rows[:at])
	})
}

// labelBag allocates bag b's label slab; it sets each label's identity and
// positions and hands it to fill, in key order.
func (la *Labeling) labelBag(b *bdd.Bag, fill func(l *Label)) {
	lay := &la.pl.lay[b.ID]
	labels := make([]Label, len(lay.Keys))
	for i, k := range lay.Keys {
		l := &labels[i]
		*l = Label{bag: int32(b.ID), key: int32(k), pos: int32(i), sep: -1}
		if lay.SepPos != nil {
			l.sep = lay.SepPos[i]
		}
		fill(l)
	}
	la.byBag[b.ID] = labels
}

// computeInternal builds the base DDG from child labels, checks for
// negative cycles, and derives each key's label via min-plus
// products over the base matrix (§5.3). Its broadcast, TreeDepth + the
// child separator labels' Words() + a word per cross arc, is plan.bagCost.
func (ps *pass) computeInternal(b *bdd.Bag) {
	la := ps.la
	lay, bp := &la.pl.lay[b.ID], &la.pl.bags[b.ID]
	ddg := &BagDDG{Bag: b, Nodes: lay.Nodes, RepsOf: lay.RepsOf}
	childID := [2]int{b.Children[0].ID, b.Children[1].ID}

	// (i) Within-child cliques from decoded child labels.
	maxArcs := len(bp.crossArcs) + len(bp.zeroArcs)
	for ci := range childID {
		maxArcs += len(bp.childSep[ci]) * (len(bp.childSep[ci]) - 1)
	}
	ddg.Arcs = make([]DDGArc, 0, maxArcs)
	for ci, cid := range childID {
		child := la.byBag[cid]
		for _, e1 := range bp.childSep[ci] {
			l1 := &child[e1.cpos]
			for _, e2 := range bp.childSep[ci] {
				if e1.key == e2.key {
					continue
				}
				if w := Decode(l1, &child[e2.cpos]); w < spath.Inf {
					ddg.Arcs = append(ddg.Arcs, DDGArc{From: int32(e1.rep), To: int32(e2.rep), Len: w, Dart: int32(planar.NoDart)})
				}
			}
		}
	}
	// (ii) Cross arcs.
	for _, a := range bp.crossArcs {
		if a.Len = la.Lengths[a.Dart]; a.Len < spath.Inf {
			ddg.Arcs = append(ddg.Arcs, a)
		}
	}
	// (iii) Zero arcs between representatives of the same key.
	ddg.Arcs = append(ddg.Arcs, bp.zeroArcs...)

	// Negative-cycle check + all-pairs matrix on the base DDG.
	nn, ns := len(ddg.Nodes), len(lay.Sep)
	ps.k.loadArcs(nn, ddg.Arcs)
	if !ps.k.potentials() {
		la.NegCycle = true
		return
	}
	ps.k.reduce()
	slab := make([]int64, nn*nn)
	ddg.Dist = make([][]int64, nn)
	for i := range ddg.Dist {
		ddg.Dist[i] = slab[i*nn : (i+1)*nn : (i+1)*nn]
		ps.k.row(i, ddg.Dist[i], slab[:i*nn])
	}
	if la.ddgs != nil {
		la.ddgs[b.ID] = ddg
	}
	ps.toSep, ps.fromSep = grow(ps.toSep, nn*ns), grow(ps.fromSep, nn*ns)
	for r := 0; r < nn; r++ {
		for q, reps := range lay.RepsOf {
			to, from := spath.Inf, spath.Inf
			for _, hr := range reps {
				to, from = min(to, ddg.Dist[r][hr]), min(from, ddg.Dist[hr][r])
			}
			ps.toSep[r*ns+q], ps.fromSep[r*ns+q] = to, from
		}
	}

	// Labels for the keys of the bag.
	vecs := make([]int64, 2*len(lay.Keys)*ns)
	for q := range vecs {
		vecs[q] = spath.Inf
	}
	la.labelBag(b, func(l *Label) {
		l.vec, vecs = vecs[:2*ns:2*ns], vecs[2*ns:]
		to, from := l.vec[:ns], l.vec[ns:]
		if l.sep >= 0 {
			// Distances directly from the base matrix (min over reps).
			for _, r := range lay.RepsOf[l.sep] {
				minInto(to, ps.toSep[r*ns:], 0)
				minInto(from, ps.fromSep[r*ns:], 0)
			}
			return
		}
		// The key lives wholly in one child: first/last hop through that
		// child's share of the separator (a share's own key is reached at
		// base distance 0 from its representative).
		ci := lay.ChildOf[l.pos]
		child := la.byBag[childID[ci]]
		lk := &child[lay.ChildPos[l.pos]]
		l.Child = lk
		for _, e := range bp.childSep[ci] {
			lp := &child[e.cpos]
			if dgo := Decode(lk, lp); dgo < spath.Inf {
				minInto(to, ps.toSep[e.rep*ns:], dgo)
			}
			if dback := Decode(lp, lk); dback < spath.Inf {
				minInto(from, ps.fromSep[e.rep*ns:], dback)
			}
		}
	})
}

// minInto lowers dst[q] to src[q] + add wherever src[q] is finite; add is
// finite.
func minInto(dst, src []int64, add int64) {
	src = src[:len(dst)]
	for q, d := range src {
		if d < spath.Inf && d+add < dst[q] {
			dst[q] = d + add
		}
	}
}
