package label

import (
	"context"
	"fmt"
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
	// RepsOf maps each separator key to its node indices (1 or 2).
	RepsOf map[int][]int
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
	// negative cycle kept the pass from reaching). A pass that labels only
	// some keys of a bag stores those alone and records in slot, by key
	// position, each key's index into them (-1 if unlabelled); slot[bag] is
	// nil when every key is labelled and index equals position.
	byBag [][]Label
	slot  [][]int32
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
	return pl.label(ctx, pl.every, lengths, led)
}

// Feasible reports whether G* is free of negative cycles under lengths —
// ComputeContext's NegCycle verdict for the dual view, negated — without
// keeping a labeling. It is the same bottom-up pass restricted to the faces
// whose labels the verdict depends on (plan.probe), and it charges led
// exactly what ComputeContext charges: a bag's cost is its TreeDepth, the
// Words() of its children's F_X labels and its arc counts, and none of those
// reads a label the pass skips. lengths is not retained.
func Feasible(ctx context.Context, t *bdd.BDD, lengths []int64, led *ledger.Ledger) (bool, error) {
	pl, err := planOf(t, views[Dual])
	if err != nil {
		return false, err
	}
	la, err := pl.label(ctx, pl.probe, lengths, led)
	if err != nil {
		return false, err
	}
	return !la.NegCycle, nil
}

// SSSPFrom computes ComputeContext(ctx, v, t, lengths, passLed).SSSP(source,
// led) — the same distances, tree darts and ledger entries — without
// labeling: one kernel run over the view's whole graph answers, and passLed
// is charged the labeling pass, led the SSSP over it. Every entry the pass
// charges is a function of the plan and of which darts are active
// (levelCosts), and shortest distances are unique. Only where a negative
// cycle aborts the pass depends on labels, so when the kernel finds one the
// probe pass runs and charges that abort. A caller whose earlier pass over
// the same lengths already charged the labeling (core.MaxFlow's λ* probe)
// hands a throwaway passLed. A canceled ctx returns its error, charging
// nothing. lengths is not retained.
func SSSPFrom(ctx context.Context, v View, t *bdd.BDD, lengths []int64, source int, passLed, led *ledger.Ledger) (*SSSPResult, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	pl.costsOnce.Do(pl.costs)
	levelCost, err := pl.levelCosts(ctx, lengths)
	if err != nil {
		return nil, err
	}
	g := t.G
	arcs := make([]DDGArc, 0, g.NumDarts())
	for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
		if l := lengths[d]; l < spath.Inf {
			from, to := pl.v.ends(g, d)
			arcs = append(arcs, DDGArc{From: int32(from), To: int32(to), Len: l, Dart: int32(d)})
		}
	}
	var k kernel
	k.loadArcs(pl.v.numKeys(g), arcs)
	if !k.potentials() {
		la, err := pl.label(ctx, pl.probe, lengths, passLed)
		if err != nil {
			return nil, err
		}
		return la.SSSP(source, led), nil
	}
	pl.chargeLevels(levelCost, passLed)
	res := &SSSPResult{Source: source, Dist: make([]int64, k.n)}
	words := 0
	root := &pl.lay[t.Root.ID]
	if pos := find(root.Keys, root.KeyOrder, source); pos >= 0 {
		words = pl.rootWords[pos]
		k.row(source, res.Dist)
	} else {
		for i := range res.Dist {
			res.Dist[i] = spath.Inf
		}
	}
	pl.finishSSSP(res, lengths, words, led)
	return res, nil
}

// levelCosts drives the labeling pass for its charges alone: bottom-up, with
// the pass's cancellation checkpoint before every bag, it folds each bag's
// cost — the plan's, plus a leaf's active arcs — into its level's maximum.
func (pl *plan) levelCosts(ctx context.Context, lengths []int64) ([]int64, error) {
	t := pl.t
	levelCost := make([]int64, t.Depth)
	for i := len(t.Bags) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, cost := t.Bags[i], pl.cost[i]
		for _, d := range pl.bags[i].leafDart {
			if lengths[d] < spath.Inf {
				cost++
			}
		}
		levelCost[b.Level] = max(levelCost[b.Level], cost)
	}
	return levelCost, nil
}

// chargeLevels charges a completed pass: each level's maximum bag cost, at
// the view's congestion.
func (pl *plan) chargeLevels(levelCost []int64, led *ledger.Ledger) {
	for lvl, cost := range levelCost {
		led.Charge(fmt.Sprintf("%s/level-%02d", pl.v.phase, lvl), pl.v.congestion*cost)
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

// label is the one labeling pass: bottom-up over the bags, labeling, in each
// bag, the keys wanted lists for it and skipping the others.
func (pl *plan) label(ctx context.Context, wanted [][]int, lengths []int64, led *ledger.Ledger) (*Labeling, error) {
	t, v := pl.t, pl.v
	la := &Labeling{
		T:       t,
		Lengths: lengths,
		pl:      pl,
		byBag:   make([][]Label, len(t.Bags)),
		slot:    make([][]int32, len(t.Bags)),
	}
	if v.retainsDDG {
		la.ddgs = make([]*BagDDG, len(t.Bags))
	}
	ps := &pass{la: la}

	// Process bags bottom-up (children have larger IDs than parents by
	// construction, so reverse ID order is a valid post-order).
	levelCost := make([]int64, t.Depth)
	for i := len(t.Bags) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := t.Bags[i]
		var cost int64
		if b.IsLeaf() {
			cost = ps.computeLeaf(b, wanted[i])
		} else {
			cost = ps.computeInternal(b, wanted[i])
		}
		if la.NegCycle {
			led.Charge(v.phase+"/negative-cycle-abort", int64(b.TreeDepth+1))
			return la, nil
		}
		if cost > levelCost[b.Level] {
			levelCost[b.Level] = cost
		}
	}
	pl.chargeLevels(levelCost, led)
	return la, nil
}

// at returns the label of the key at position pos of bag id (nil if the
// pass skipped it).
func (la *Labeling) at(id int, pos int32) *Label {
	if s := la.slot[id]; s != nil {
		if pos = s[pos]; pos < 0 {
			return nil
		}
	}
	return &la.byBag[id][pos]
}

// Label returns the label of key k in bag b (nil if k is absent from b).
func (la *Labeling) Label(b *bdd.Bag, k int) *Label {
	lay := &la.pl.lay[b.ID]
	pos := find(lay.Keys, lay.KeyOrder, k)
	if pos < 0 || la.byBag[b.ID] == nil {
		return nil
	}
	return la.at(b.ID, pos)
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

// computeLeaf gathers the whole bag (the "collect the entire graph" step),
// takes the negative-cycle verdict from the kernel's potentials, and computes
// the distances from each wanted key — a kernel row is that key's LeafTo;
// returns the measured broadcast cost TreeDepth + #nodes + #arcs
// (pipelined).
func (ps *pass) computeLeaf(b *bdd.Bag, wanted []int) int64 {
	la := ps.la
	n := len(la.pl.lay[b.ID].Keys)
	arcs := ps.k.loadLeaf(&la.pl.bags[b.ID], la.Lengths)
	if !ps.k.potentials() {
		la.NegCycle = true
		return 0
	}
	rows := make([]int64, len(wanted)*n)
	la.labelBag(b, wanted, func(l *Label) {
		l.vec, rows = rows[:n:n], rows[n:]
		ps.k.row(int(l.pos), l.vec)
	})
	return int64(b.TreeDepth + n + arcs)
}

// labelBag allocates bag b's label slab for a pass that labels the keys in
// wanted; it sets each label's identity and positions and hands it to fill,
// in key order. When some keys stay unlabelled the bag's slot index records
// which.
func (la *Labeling) labelBag(b *bdd.Bag, wanted []int, fill func(l *Label)) {
	lay := &la.pl.lay[b.ID]
	nl := len(lay.Keys)
	var slot []int32
	if len(wanted) < nl {
		nl, slot = len(wanted), absent(nl)
	}
	labels := make([]Label, nl)
	// wanted is a subsequence of the bag's keys, so one merge finds its
	// positions.
	w := 0
	for i, k := range lay.Keys {
		if w == len(wanted) || wanted[w] != k {
			continue
		}
		idx := i
		if slot != nil {
			idx, slot[i] = w, int32(w)
		}
		w++
		l := &labels[idx]
		*l = Label{bag: int32(b.ID), key: int32(k), pos: int32(i), sep: -1}
		if lay.SepPos != nil {
			l.sep = lay.SepPos[i]
		}
		fill(l)
	}
	la.byBag[b.ID], la.slot[b.ID] = labels, slot
}

// computeInternal builds the base DDG from child labels, checks for
// negative cycles, and derives each wanted key's label via min-plus
// products over the base matrix (§5.3); returns the charged broadcast cost.
func (ps *pass) computeInternal(b *bdd.Bag, wanted []int) int64 {
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
	broadcastWords := 0
	for ci, cid := range childID {
		for _, e1 := range bp.childSep[ci] {
			l1 := la.at(cid, e1.cpos)
			broadcastWords += l1.Words()
			for _, e2 := range bp.childSep[ci] {
				if e1.key == e2.key {
					continue
				}
				if w := Decode(l1, la.at(cid, e2.cpos)); w < spath.Inf {
					ddg.Arcs = append(ddg.Arcs, DDGArc{From: int32(e1.rep), To: int32(e2.rep), Len: w, Dart: int32(planar.NoDart)})
				}
			}
		}
	}
	// (ii) Cross arcs, a word each.
	for _, a := range bp.crossArcs {
		if a.Len = la.Lengths[a.Dart]; a.Len < spath.Inf {
			ddg.Arcs = append(ddg.Arcs, a)
		}
	}
	broadcastWords += len(bp.crossArcs)
	// (iii) Zero arcs between representatives of the same key.
	ddg.Arcs = append(ddg.Arcs, bp.zeroArcs...)

	// Negative-cycle check + all-pairs matrix on the base DDG.
	nn, ns := len(ddg.Nodes), len(lay.Sep)
	ps.k.loadArcs(nn, ddg.Arcs)
	if !ps.k.potentials() {
		la.NegCycle = true
		return 0
	}
	slab := make([]int64, nn*nn)
	ddg.Dist = make([][]int64, nn)
	for i := range ddg.Dist {
		ddg.Dist[i] = slab[i*nn : (i+1)*nn : (i+1)*nn]
		ps.k.row(i, ddg.Dist[i])
	}
	if la.ddgs != nil {
		la.ddgs[b.ID] = ddg
	}
	ps.toSep, ps.fromSep = grow(ps.toSep, nn*ns), grow(ps.fromSep, nn*ns)
	for r := 0; r < nn; r++ {
		for q, reps := range bp.sepReps {
			to, from := spath.Inf, spath.Inf
			for _, hr := range reps {
				to, from = min(to, ddg.Dist[r][hr]), min(from, ddg.Dist[hr][r])
			}
			ps.toSep[r*ns+q], ps.fromSep[r*ns+q] = to, from
		}
	}

	// Labels for the wanted keys of the bag.
	vecs := make([]int64, 2*len(wanted)*ns)
	for q := range vecs {
		vecs[q] = spath.Inf
	}
	la.labelBag(b, wanted, func(l *Label) {
		l.vec, vecs = vecs[:2*ns:2*ns], vecs[2*ns:]
		to, from := l.vec[:ns], l.vec[ns:]
		if l.sep >= 0 {
			// Distances directly from the base matrix (min over reps).
			for _, r := range bp.sepReps[l.sep] {
				minInto(to, ps.toSep[r*ns:], 0)
				minInto(from, ps.fromSep[r*ns:], 0)
			}
			return
		}
		// The key lives wholly in one child: first/last hop through that
		// child's share of the separator (a share's own key is reached at
		// base distance 0 from its representative).
		ci := lay.ChildOf[l.pos]
		lk := la.at(childID[ci], lay.ChildPos[l.pos])
		l.Child = lk
		for _, e := range bp.childSep[ci] {
			lp := la.at(childID[ci], e.cpos)
			if dgo := Decode(lk, lp); dgo < spath.Inf {
				minInto(to, ps.toSep[e.rep*ns:], dgo)
			}
			if dback := Decode(lp, lk); dback < spath.Inf {
				minInto(from, ps.fromSep[e.rep*ns:], dback)
			}
		}
	})
	return int64(b.TreeDepth + broadcastWords)
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
