package label

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"planarflow/internal/bdd"
	"planarflow/internal/planar"
)

// plan is everything a labeling pass reads off the tree alone, laid out
// through one view: per bag, the order its labels and vectors are stored
// in, the leaf's CSR skeleton or the DDG skeleton, and the bag's own graph
// (ownGraph). It does not depend on the lengths, so it is derived once per
// tree and view (planOf) and shared, read-only, by every pass and probe over
// that tree and every labeling computed or restored over it.
type plan struct {
	t    *bdd.BDD
	v    *view
	lay  []BagLayout // by bag ID
	bags []bagPlan   // by bag ID

	// cost is, by bag ID, what a labeling pass charges the bag apart from
	// a leaf's active arcs (bagCost adds those): TreeDepth, plus a leaf's
	// keys, or an internal bag's children's separator label Words() and a
	// word per cross arc. rootWords is the Words() of each root key's label,
	// by position in the root's Keys. Words() counts vector lengths, which
	// the tree and the view fix, so both are derived once, on the first pass
	// or probe over the plan (costs): every pass charges by them, and
	// Feasible and SSSPFrom charge them without labeling anything.
	//
	// Derived with them: levelPhase, by level, the ledger phase a completed
	// pass charges the level under, and abortPhase the one an aborted pass
	// charges; and activeCost, by level, what a completed pass charges when
	// every dart is active — the residual lengths of core.MaxFlow's search,
	// all finite, so its probes charge by it (Search).
	costsOnce  sync.Once
	cost       []int64
	rootWords  []int
	levelPhase []string
	abortPhase string
	activeCost []int64

	// whole is the root's own graph, the view's whole graph, laid out over
	// the keys themselves: what every probe and SSSPFrom loads; wholeArc is,
	// by dart, its arc in whole. They are derived on the first of them
	// (wholeGraph), so a tree only ever labeled in full does not keep them.
	wholeOnce sync.Once
	whole     skeleton
	wholeArc  []int32

	// own is, by bag ID, each internal bag's own graph laid out over
	// positions in its Keys, and the root's the whole graph: where a probe
	// whose lengths close a negative cycle looks for the bag its pass would
	// abort at (abortBag). They are derived together on the first such probe
	// (ownGraph), so a tree no probe found infeasible does not keep them.
	ownOnce sync.Once
	own     []skeleton
}

// BagLayout is the order one bag's labels and their distance vectors are
// stored in, fixed by the tree and the view: labels, and every LeafTo, follow
// Keys; every To and From follows Sep. Everything outside this package
// reaches a position through the Label that carries it.
type BagLayout struct {
	Keys     []int
	KeyOrder []int32 // positions in Keys by ascending key

	// Non-leaf bags: the separator; per position in Keys, the key's position
	// in Sep (-1 outside it), the child (index into Bag.Children) holding a
	// key outside it, and the key's position among that child's keys.
	Sep      []int
	SepOrder []int32 // positions in Sep by ascending key
	SepPos   []int32
	ChildOf  []int8
	ChildPos []int32

	// Nodes and RepsOf are the bag's DDG skeleton, shared by the BagDDG of
	// every labeling over the tree: a node per (child, separator key)
	// incidence in separator order, and by position in Sep the indices of
	// the key's nodes (1 or 2, consecutive).
	Nodes  []DDGNode
	RepsOf [][]int
}

// bagPlan is the rest of a bag's length-independent structure: what only
// the pass reads.
type bagPlan struct {
	// Leaf bags: the CSR skeleton of the bag's graph over positions in Keys.
	leaf skeleton

	// Non-leaf bags: each child's share of the separator, and the cross and
	// zero arcs in DDG arc order (cross lengths are filled in per pass).
	childSep  [2][]sepEntry
	crossArcs []DDGArc
	zeroArcs  []DDGArc
}

// sepEntry is a separator key present in one child, with its position among
// that child's keys and its DDG node for that child.
type sepEntry struct {
	key  int
	cpos int32
	rep  int
}

// treePlans is what a tree memoizes for this package: one plan per view,
// each derived on first use.
type treePlans [len(views)]struct {
	once sync.Once
	pl   *plan
	err  error
}

// Layouts returns, by bag ID, the layout the labels of view v over t are
// stored in: the tree's plan for v, derived on first use and shared by every
// labeling over t. The error reports a tree that is not a decomposition
// bdd.Build could have produced; no labeling exists over it.
func Layouts(v View, t *bdd.BDD) ([]BagLayout, error) {
	pl, err := planOf(t, views[v])
	if err != nil {
		return nil, err
	}
	return pl.lay, nil
}

// planOf returns the tree's plan for v. The error is newPlan's: t is not a
// decomposition bdd.Build could have produced (a snapshot's tree section
// that decoded but does not hang together).
func planOf(t *bdd.BDD, v *view) (*plan, error) {
	plans := t.Memo(func() any { return new(treePlans) }).(*treePlans)
	p := &plans[v.id]
	p.once.Do(func() { p.pl, p.err = newPlan(t, v) })
	return p.pl, p.err
}

// argsort returns the positions of keys in ascending key order.
func argsort(keys []int) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return order
}

// find returns the position of key k in keys, whose ascending order is
// order, or -1.
func find(keys []int, order []int32, k int) int32 {
	i := sort.Search(len(order), func(i int) bool { return keys[order[i]] >= k })
	if i < len(order) && keys[order[i]] == k {
		return order[i]
	}
	return -1
}

// newPlan lays out every bag of t through v. Its working memory is one
// key-indexed slab, live for this call only and all -1 again after each
// bag: a key's position in the bag (pos), in each of its children (cpos),
// and its DDG node for each child (rep).
func newPlan(t *bdd.BDD, v *view) (*plan, error) {
	pl := &plan{
		t:    t,
		v:    v,
		lay:  make([]BagLayout, len(t.Bags)),
		bags: make([]bagPlan, len(t.Bags)),
	}
	nk := v.numKeys(t.G)
	slab := absent(5 * nk)
	cut := func(i int) []int32 { return slab[i*nk : (i+1)*nk : (i+1)*nk] }
	pos, cpos, rep := cut(0), [2][]int32{cut(1), cut(2)}, [2][]int32{cut(3), cut(4)}
	for _, b := range t.Bags {
		if b.Level < 0 || b.Level >= t.Depth {
			return nil, fmt.Errorf("label: bag %d at level %d of a %d-level tree", b.ID, b.Level, t.Depth)
		}
		lay := &pl.lay[b.ID]
		lay.Keys = v.keys(t.G, b, pos)
		lay.KeyOrder = argsort(lay.Keys)
	}
	for _, b := range t.Bags {
		lay, bp := &pl.lay[b.ID], &pl.bags[b.ID]
		for i, k := range lay.Keys {
			pos[k] = int32(i)
		}
		var err error
		if b.IsLeaf() {
			bp.leaf = pl.skeletonOf(b, len(lay.Keys), pos)
		} else {
			for ci, c := range b.Children {
				for i, k := range pl.lay[c.ID].Keys {
					cpos[ci][k] = int32(i)
				}
			}
			err = pl.ddgSkeleton(b, lay, bp, pos, cpos, rep)
			for ci, c := range b.Children {
				for _, k := range pl.lay[c.ID].Keys {
					cpos[ci][k] = -1
				}
			}
		}
		for _, k := range lay.Keys {
			pos[k] = -1
		}
		if err != nil {
			return nil, fmt.Errorf("label: bag %d: %w", b.ID, err)
		}
	}
	return pl, nil
}

func absent(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// costs derives cost and rootWords bottom-up, from the Words() of every
// bag's labels by key position, held in one slab until the root is done. A
// label's Words() is 2 plus 2 per vector entry — a leaf's LeafTo over its
// keys, an internal bag's To and From over its separator — plus its
// Child's. Then it names the levels' phases and folds activeCost.
func (pl *plan) costs() {
	t := pl.t
	pl.cost = make([]int64, len(t.Bags))
	off := make([]int, len(t.Bags)+1) // bag i's words are words[off[i]:off[i+1]]
	for i := range t.Bags {
		off[i+1] = off[i] + len(pl.lay[i].Keys)
	}
	words := make([]int, off[len(t.Bags)])
	for i := len(t.Bags) - 1; i >= 0; i-- {
		b, lay, bp := t.Bags[i], &pl.lay[i], &pl.bags[i]
		w := words[off[i]:off[i+1]]
		cost := int64(b.TreeDepth)
		if b.IsLeaf() {
			cost += int64(len(w))
			for j := range w {
				w[j] = 2 + 2*len(w)
			}
		} else {
			for ci, c := range b.Children {
				for _, e := range bp.childSep[ci] {
					cost += int64(words[off[c.ID]+int(e.cpos)])
				}
			}
			cost += int64(len(bp.crossArcs))
			for j := range w {
				if w[j] = 2 + 4*len(lay.Sep); lay.SepPos[j] < 0 {
					w[j] += words[off[b.Children[lay.ChildOf[j]].ID]+int(lay.ChildPos[j])]
				}
			}
		}
		pl.cost[i] = cost
	}
	root := t.Root.ID
	pl.rootWords = append([]int(nil), words[off[root]:off[root+1]]...)
	pl.levelPhase = make([]string, t.Depth)
	for lvl := range pl.levelPhase {
		pl.levelPhase[lvl] = fmt.Sprintf("%s/level-%02d", pl.v.phase, lvl)
	}
	pl.abortPhase = pl.v.phase + "/negative-cycle-abort"
	pl.activeCost = make([]int64, t.Depth)
	for i, b := range t.Bags {
		pl.activeCost[b.Level] = max(pl.activeCost[b.Level], pl.cost[i]+int64(len(pl.bags[i].leaf.dart)))
	}
}

// wholeGraph returns the plan's whole-graph skeleton, deriving it on first
// use.
func (pl *plan) wholeGraph() *skeleton {
	pl.wholeOnce.Do(func() {
		keys := make([]int32, pl.v.numKeys(pl.t.G))
		for k := range keys {
			keys[k] = int32(k)
		}
		pl.whole = pl.skeletonOf(pl.t.Root, len(keys), keys)
		pl.wholeArc = absent(pl.t.G.NumDarts())
		for i, d := range pl.whole.dart {
			pl.wholeArc[d] = int32(i)
		}
	})
	return &pl.whole
}

// ownGraph returns bag i's own graph: a leaf's skeleton, or one of own,
// deriving them all on first use.
func (pl *plan) ownGraph(i int) *skeleton {
	if pl.t.Bags[i].IsLeaf() {
		return &pl.bags[i].leaf
	}
	pl.ownOnce.Do(func() {
		t := pl.t
		pl.own = make([]skeleton, len(t.Bags))
		pl.own[t.Root.ID] = *pl.wholeGraph()
		pos := absent(pl.v.numKeys(t.G))
		for _, b := range t.Bags {
			if b.IsLeaf() || b == t.Root {
				continue
			}
			keys := pl.lay[b.ID].Keys
			for i, k := range keys {
				pos[k] = int32(i)
			}
			pl.own[b.ID] = pl.skeletonOf(b, len(keys), pos)
			for _, k := range keys {
				pos[k] = -1
			}
		}
	})
	return &pl.own[i]
}

// skeletonOf lays out bag b's own graph — the arcs bagDarts yields, X* in
// the dual — in CSR form over n nodes, counting-sorted by tail. node maps
// the bag's keys to their nodes: their positions in Keys, or for the whole
// graph the keys themselves. The fill pass uses start[u] as u's cursor, so
// afterwards start[u] holds what start[u+1] held, and one shift restores it.
func (pl *plan) skeletonOf(b *bdd.Bag, n int, node []int32) skeleton {
	g, v := pl.t.G, pl.v
	start := make([]int32, n+1)
	v.bagDarts(g, b, func(d planar.Dart) {
		from, _ := v.ends(g, d)
		start[node[from]+1]++
	})
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	to, dart := make([]int32, start[n]), make([]planar.Dart, start[n])
	v.bagDarts(g, b, func(d planar.Dart) {
		from, head := v.ends(g, d)
		i := start[node[from]]
		start[node[from]]++
		to[i], dart[i] = node[head], d
	})
	copy(start[1:], start[:n])
	start[0] = 0
	return skeleton{start: start, to: to, dart: dart}
}

// ddgSkeleton lays out a non-leaf bag: the separator and where every key
// sits relative to it and to the children, then the base DDG — a node per
// (child, separator key) incidence in separator order, and the arcs whose
// endpoints the tree fixes: (ii) the cross arcs and (iii) the zero arcs
// between the two representatives of a key both children hold. pos and cpos
// map keys to positions in b and in each child (-1 when absent); rep is -1
// at every key on entry, maps each separator key to its node for each child
// while the arcs are laid, and is -1 again on a nil return. Every slice is
// counted before it is allocated. The error reports a bag that does not hang
// together with its children.
func (pl *plan) ddgSkeleton(b *bdd.Bag, lay *BagLayout, bp *bagPlan, pos []int32, cpos, rep [2][]int32) error {
	g, v := pl.t.G, pl.v
	for _, c := range b.Children {
		for _, k := range pl.lay[c.ID].Keys {
			if pos[k] < 0 {
				return fmt.Errorf("key %d of child bag %d is not in the bag", k, c.ID)
			}
		}
	}
	lay.Sep = v.sep(b, lay.Keys, cpos)
	lay.SepOrder = argsort(lay.Sep)
	lay.SepPos = absent(len(lay.Keys))
	// share[ci] counts the separator keys child ci holds; a key both hold
	// has two nodes and a zero arc each way between them.
	var share [2]int
	zeros := 0
	for p, k := range lay.Sep {
		if pos[k] < 0 || lay.SepPos[pos[k]] >= 0 {
			return fmt.Errorf("separator key %d is not a key of the bag, once", k)
		}
		lay.SepPos[pos[k]] = int32(p)
		in := 0
		for ci := range b.Children {
			if cpos[ci][k] >= 0 {
				share[ci]++
				in++
			}
		}
		zeros += in * (in - 1)
	}
	// A key's nodes are consecutive, so RepsOf[p] is the run of node
	// indices p's nodes span, cut from one slab of them all.
	nn := share[0] + share[1]
	lay.Nodes = make([]DDGNode, nn)
	lay.RepsOf = make([][]int, len(lay.Sep))
	index := make([]int, nn)
	n := 0
	for p, k := range lay.Sep {
		first := n
		for ci := range b.Children {
			if cpos[ci][k] >= 0 {
				rep[ci][k] = int32(n)
				lay.Nodes[n], index[n] = DDGNode{Child: ci, Key: k}, n
				n++
			}
		}
		lay.RepsOf[p] = index[first:n:n]
	}
	lay.ChildOf = make([]int8, len(lay.Keys))
	lay.ChildPos = absent(len(lay.Keys))
	for i, k := range lay.Keys {
		if lay.SepPos[i] >= 0 {
			continue
		}
		ci := 0
		if cpos[1][k] >= 0 {
			ci = 1
		}
		if cpos[ci][k] < 0 {
			return fmt.Errorf("key %d is in neither child nor the separator", k)
		}
		lay.ChildOf[i], lay.ChildPos[i] = int8(ci), cpos[ci][k]
	}
	for ci := range b.Children {
		bp.childSep[ci] = make([]sepEntry, 0, share[ci])
		for _, k := range lay.Sep {
			if cpos[ci][k] >= 0 {
				bp.childSep[ci] = append(bp.childSep[ci], sepEntry{key: k, cpos: cpos[ci][k], rep: int(rep[ci][k])})
			}
		}
	}
	// nodeOf is the DDG node of key k for the child a cross dart's side
	// names, or -1: a side that is no child's (SideOf's -1) has none.
	nodeOf := func(side, k int) int32 {
		if side < 0 || side >= len(rep) {
			return -1
		}
		return rep[side][k]
	}
	cross := v.crossEdges(b)
	bp.crossArcs = make([]DDGArc, 0, 2*len(cross))
	for _, e := range cross {
		for _, d := range [2]planar.Dart{planar.ForwardDart(e), planar.BackwardDart(e)} {
			from, to := v.ends(g, d)
			tail, head := nodeOf(b.SideOf(d), from), nodeOf(b.SideOf(planar.Rev(d)), to)
			if tail < 0 || head < 0 {
				return fmt.Errorf("cross edge %d does not join separator keys of the two children", e)
			}
			bp.crossArcs = append(bp.crossArcs, DDGArc{From: tail, To: head, Dart: int32(d)})
		}
	}
	bp.zeroArcs = make([]DDGArc, 0, zeros)
	for _, reps := range lay.RepsOf {
		for _, i := range reps {
			for _, j := range reps {
				if i != j {
					bp.zeroArcs = append(bp.zeroArcs, DDGArc{From: int32(i), To: int32(j), Dart: int32(planar.NoDart)})
				}
			}
		}
	}
	for _, k := range lay.Sep {
		rep[0][k], rep[1][k] = -1, -1
	}
	return nil
}
