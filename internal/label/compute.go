package label

import (
	"context"
	"fmt"

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
	From, To int // node indices
	Len      int64
	// Dart is the primal dart for cross arcs (NoDart for clique and zero
	// arcs).
	Dart planar.Dart
}

// BagDDG is the base dense distance graph of a non-leaf bag: nodes are the
// child representatives of separator keys; arcs are (i) within-child
// cliques weighted by decoded child-label distances, (ii) cross arcs (the
// dual S_X arcs), and (iii) zero arcs joining representatives of the same
// key.
type BagDDG struct {
	Bag *bdd.Bag
	// Nodes, Index and RepsOf (below) depend on the tree alone; labelings
	// computed over one tree share them, read-only.
	Nodes []DDGNode
	Index map[DDGNode]int
	Arcs  []DDGArc
	// Dist is the all-pairs matrix over Nodes (computed by Bellman–Ford;
	// spath.Inf when unreachable).
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

	v     *view
	byBag []map[int]*Label // bag ID -> key -> label
	ddgs  []*BagDDG        // bag ID -> base DDG (nil for leaves); nil unless the view retains DDGs
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
	pl := planOf(t, views[v])
	return pl.label(ctx, pl.every, false, lengths, led)
}

// Feasible reports whether G* is free of negative cycles under lengths —
// ComputeContext's NegCycle verdict for the dual view, negated — without
// keeping a labeling. It is the same bottom-up pass restricted to the faces
// whose labels the verdict depends on (plan.probe), and it charges led
// exactly what ComputeContext charges: a bag's cost is its TreeDepth, the
// Words() of its children's F_X labels and its arc counts, and none of those
// reads a label the pass skips. lengths is not retained.
func Feasible(ctx context.Context, t *bdd.BDD, lengths []int64, led *ledger.Ledger) (bool, error) {
	pl := planOf(t, views[Dual])
	la, err := pl.label(ctx, pl.probe, false, lengths, led)
	if err != nil {
		return false, err
	}
	return !la.NegCycle, nil
}

// SSSPFrom computes ComputeContext(ctx, v, t, lengths, passLed).SSSP(source,
// led) — the same distances, tree darts and ledger entries — without the
// full labeling. The SSSP decode reads the source's whole label chain but,
// of any other key, only the half that holds distances towards it, so the
// pass labels in full only the keys that chain depends on (plan.wantedFrom
// the source) and every other key From-only. passLed is charged the
// labeling pass, led the SSSP over it; a caller that reaches this after a
// pass over the same lengths already charged the labeling (core.MaxFlow's
// λ* probe) hands a throwaway passLed. A From-only label must never be the
// first argument of Decode, nor have Words() taken, so the half-labelled
// Labeling does not leave this function. lengths is not retained.
func SSSPFrom(ctx context.Context, v View, t *bdd.BDD, lengths []int64, source int, passLed, led *ledger.Ledger) (*SSSPResult, error) {
	pl := planOf(t, views[v])
	la, err := pl.label(ctx, pl.wantedFrom([]int{source}), true, lengths, passLed)
	if err != nil {
		return nil, err
	}
	return la.SSSP(source, led), nil
}

// label is the one labeling pass: bottom-up over the bags, labeling in full,
// in each bag, the keys wanted lists for it. The bag's other keys are
// skipped, or with fromRest labelled From-only: From/LeafFrom (and Child)
// alone, enough to be the second argument of Decode.
func (pl *plan) label(ctx context.Context, wanted [][]int, fromRest bool, lengths []int64, led *ledger.Ledger) (*Labeling, error) {
	t, v := pl.t, pl.v
	la := &Labeling{
		T:       t,
		Lengths: lengths,
		v:       v,
		byBag:   make([]map[int]*Label, len(t.Bags)),
	}
	if v.retainsDDG {
		la.ddgs = make([]*BagDDG, len(t.Bags))
	}

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
			cost = la.computeLeaf(b, &pl.bags[i], wanted[i], fromRest)
		} else {
			cost = la.computeInternal(b, &pl.bags[i], wanted[i], fromRest)
		}
		if la.NegCycle {
			led.Charge(v.phase+"/negative-cycle-abort", int64(b.TreeDepth+1))
			return la, nil
		}
		if cost > levelCost[b.Level] {
			levelCost[b.Level] = cost
		}
	}
	for lvl := 0; lvl < t.Depth; lvl++ {
		led.Charge(fmt.Sprintf("%s/level-%02d", v.phase, lvl), v.congestion*levelCost[lvl])
	}
	return la, nil
}

// Label returns the label of key k in bag b (nil if k is absent from b).
func (la *Labeling) Label(b *bdd.Bag, k int) *Label { return la.byBag[b.ID][k] }

// RootLabel returns the label of key k in the root bag (the whole graph).
func (la *Labeling) RootLabel(k int) *Label { return la.byBag[t0][k] }

const t0 = 0 // root bag ID

// Dist returns dist(k1 -> k2) in the whole graph (spath.Inf if unreachable,
// or if either key has no dart and hence no label).
func (la *Labeling) Dist(k1, k2 int) int64 {
	if la.NegCycle {
		return spath.Inf
	}
	a, b := la.byBag[t0][k1], la.byBag[t0][k2]
	if a == nil || b == nil {
		return spath.Inf
	}
	return Decode(a, b)
}

// View reports which graph the labeling measures.
func (la *Labeling) View() View { return la.v.id }

// Separator returns the separator keys of non-leaf bag b in the order the
// labeling's plan fixes: exactly the key set of every To/From map in b.
func (la *Labeling) Separator(b *bdd.Bag) []int { return planOf(la.T, la.v).bags[b.ID].sep }

// DDG returns the base dense distance graph of a non-leaf bag (nil when the
// view retains none).
func (la *Labeling) DDG(b *bdd.Bag) *BagDDG {
	if la.ddgs == nil {
		return nil
	}
	return la.ddgs[b.ID]
}

// FootprintBytes estimates the resident memory of the labeling: every
// bag's label maps plus the retained DDGs (labels are counted where they
// live in byBag — Child pointers reference those same objects and add
// nothing). An accounting estimate for eviction budgeting, not an exact
// heap measurement; maps count entries at the ~48 bytes/entry rule of
// thumb. The BDD the labeling decodes over is accounted separately.
func (la *Labeling) FootprintBytes() int64 {
	const (
		mapEntry   = 48
		labelFixed = 96
		arcSize    = 40
	)
	var b int64
	for _, labels := range la.byBag {
		b += int64(len(labels)) * mapEntry
		for _, l := range labels {
			b += labelFixed
			b += int64(len(l.To)+len(l.From)+len(l.LeafTo)+len(l.LeafFrom)) * mapEntry
		}
	}
	for _, ddg := range la.ddgs {
		if ddg == nil {
			continue
		}
		b += int64(len(ddg.Nodes))*16 + int64(len(ddg.Index)+len(ddg.RepsOf))*mapEntry
		b += int64(len(ddg.Arcs)) * arcSize
		for _, row := range ddg.Dist {
			b += int64(len(row)) * 8
		}
	}
	return b
}

// computeLeaf gathers the whole bag (the "collect the entire graph" step),
// takes the negative-cycle verdict from one super-source pass, and computes
// distances from each wanted key; returns the measured broadcast cost
// TreeDepth + #nodes + #arcs (pipelined). LeafFrom, which nothing decodes,
// covers the wanted keys only — all of them in a full labeling — and is all
// a From-only label holds.
func (la *Labeling) computeLeaf(b *bdd.Bag, bp *bagPlan, wanted []int, fromRest bool) int64 {
	n := len(bp.keys)
	super := n
	dg := spath.NewDigraph(n + 1)
	arcs := 0
	for _, a := range bp.leafArcs {
		if l := la.Lengths[a.dart]; l < spath.Inf {
			dg.AddArc(a.from, a.to, l, int(a.dart))
			arcs++
		}
	}
	for i := 0; i < n; i++ {
		dg.AddArc(super, i, 0, -1)
	}
	if _, ok := spath.BellmanFord(dg, super); !ok {
		la.NegCycle = true
		return 0
	}
	// wanted is a subsequence of bp.keys, so one merge finds its positions.
	rows := make([][]int64, n) // by source position; nil when not wanted
	w := 0
	for i, k := range bp.keys {
		if w < len(wanted) && wanted[w] == k {
			res, _ := spath.BellmanFord(dg, i)
			rows[i] = res.Dist
			w++
		}
	}
	size := len(wanted)
	if fromRest {
		size = n
	}
	labels := make(map[int]*Label, size)
	for i, k := range bp.keys {
		full := rows[i] != nil
		if !full && !fromRest {
			continue
		}
		l := &Label{Bag: b, Key: k}
		if full {
			l.LeafTo = make(map[int]int64, n)
		}
		l.LeafFrom = make(map[int]int64, len(wanted))
		for j, h := range bp.keys {
			if full {
				l.LeafTo[h] = rows[i][j]
			}
			if rows[j] != nil {
				l.LeafFrom[h] = rows[j][i]
			}
		}
		labels[k] = l
	}
	la.byBag[b.ID] = labels
	return int64(b.TreeDepth + n + arcs)
}

// computeInternal builds the base DDG from child labels, checks for
// negative cycles, and derives each wanted key's label via min-plus
// products over the base matrix (§5.3); returns the charged broadcast cost.
func (la *Labeling) computeInternal(b *bdd.Bag, bp *bagPlan, wanted []int, fromRest bool) int64 {
	ddg := &BagDDG{Bag: b, Nodes: bp.nodes, Index: bp.index, RepsOf: bp.repsOf}
	childLabels := [2]map[int]*Label{la.byBag[b.Children[0].ID], la.byBag[b.Children[1].ID]}

	// (i) Within-child cliques from decoded child labels.
	broadcastWords := 0
	for ci := range b.Children {
		for _, e1 := range bp.childSep[ci] {
			l1 := childLabels[ci][e1.key]
			broadcastWords += l1.Words()
			for _, e2 := range bp.childSep[ci] {
				if e1.key == e2.key {
					continue
				}
				if w := Decode(l1, childLabels[ci][e2.key]); w < spath.Inf {
					ddg.Arcs = append(ddg.Arcs, DDGArc{From: e1.rep, To: e2.rep, Len: w, Dart: planar.NoDart})
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
	dg := spath.NewDigraph(len(ddg.Nodes) + 1)
	super := len(ddg.Nodes)
	for _, a := range ddg.Arcs {
		dg.AddArc(a.From, a.To, a.Len, -1)
	}
	for i := range ddg.Nodes {
		dg.AddArc(super, i, 0, -1)
	}
	if _, ok := spath.BellmanFord(dg, super); !ok {
		la.NegCycle = true
		return 0
	}
	ddg.Dist = make([][]int64, len(ddg.Nodes))
	base := spath.NewDigraph(len(ddg.Nodes))
	for _, a := range ddg.Arcs {
		base.AddArc(a.From, a.To, a.Len, -1)
	}
	for i := range ddg.Nodes {
		res, _ := spath.BellmanFord(base, i)
		ddg.Dist[i] = res.Dist
	}
	if la.ddgs != nil {
		la.ddgs[b.ID] = ddg
	}

	// ---- Labels for the wanted keys of the bag; with fromRest, From-only
	// labels for the others. ----
	size := len(wanted)
	if fromRest {
		size = len(bp.keys)
	}
	labels := make(map[int]*Label, size)
	to := make([]int64, len(bp.sep)) // by position in bp.sep
	from := make([]int64, len(bp.sep))
	w := 0
	for i, k := range bp.keys {
		// wanted is a subsequence of bp.keys.
		full := w < len(wanted) && wanted[w] == k
		if full {
			w++
		} else if !fromRest {
			continue
		}
		l := &Label{Bag: b, Key: k}
		if full {
			l.To = make(map[int]int64, len(bp.sep))
		}
		l.From = make(map[int]int64, len(bp.sep))
		if p := bp.sepPos[i]; p >= 0 {
			// Distances directly from the base matrix (min over reps).
			for q, h := range bp.sep {
				if full {
					l.To[h] = minOverReps(ddg, bp.sepReps[p], bp.sepReps[q])
				}
				l.From[h] = minOverReps(ddg, bp.sepReps[q], bp.sepReps[p])
			}
		} else {
			// k lives wholly in one child: first/last hop through that
			// child's share of the separator (a share's own key is reached
			// at base distance 0 from its representative).
			ci := bp.childOf[i]
			lk := childLabels[ci][k]
			l.Child = lk
			for q := range bp.sep {
				to[q], from[q] = spath.Inf, spath.Inf
			}
			for _, e := range bp.childSep[ci] {
				lp := childLabels[ci][e.key]
				// A From-only lk is never decoded from: its To half stays Inf.
				dgo, dback := spath.Inf, Decode(lp, lk)
				if full {
					dgo = Decode(lk, lp)
				}
				if dgo < spath.Inf {
					for q, reps := range bp.sepReps {
						for _, hr := range reps {
							if dd := ddg.Dist[e.rep][hr]; dd < spath.Inf && dgo+dd < to[q] {
								to[q] = dgo + dd
							}
						}
					}
				}
				if dback < spath.Inf {
					for q, reps := range bp.sepReps {
						for _, hr := range reps {
							if dd := ddg.Dist[hr][e.rep]; dd < spath.Inf && dd+dback < from[q] {
								from[q] = dd + dback
							}
						}
					}
				}
			}
			for q, h := range bp.sep {
				if full {
					l.To[h] = to[q]
				}
				l.From[h] = from[q]
			}
		}
		labels[k] = l
	}
	la.byBag[b.ID] = labels
	return int64(b.TreeDepth + broadcastWords)
}

func minOverReps(ddg *BagDDG, from, to []int) int64 {
	best := spath.Inf
	for _, i := range from {
		for _, j := range to {
			if d := ddg.Dist[i][j]; d < best {
				best = d
			}
		}
	}
	return best
}
