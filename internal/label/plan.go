package label

import (
	"fmt"
	"sort"
	"sync"

	"planarflow/internal/bdd"
	"planarflow/internal/planar"
)

// plan is everything a labeling pass reads off the tree alone, laid out
// through one view: per bag, the order its labels and vectors are stored
// in, the leaf's CSR skeleton or the DDG skeleton, and the wanted sets a
// pass can be driven by. It does not depend on the lengths, so it is derived
// once per tree and view (planOf) and shared, read-only, by every pass over
// that tree and every labeling computed or restored over it.
type plan struct {
	t    *bdd.BDD
	v    *view
	lay  []BagLayout // by bag ID
	bags []bagPlan   // by bag ID

	// A pass labels, in each bag, the keys its wanted set lists for that bag
	// ID. every lists all keys of every bag: the full labeling. probe lists
	// only the keys whose labels decide NegCycle (probeSets): the child
	// separator labels a bag's DDG is built from, plus the Child chain those
	// labels decode and count Words() through. Each list is a subsequence of
	// its bag's keys.
	every, probe [][]int

	// cost is, by bag ID, what the full labeling charges the bag apart from
	// a leaf's active arcs: TreeDepth, plus a leaf's keys, or an internal
	// bag's children's separator label Words() and a word per cross arc.
	// rootWords is the Words() of each root key's label, by position in the
	// root's Keys. Words() counts vector lengths, which the tree and the view
	// fix, so both are derived once, on SSSPFrom's first call over the plan
	// (costs), and SSSPFrom charges them without labeling anything.
	costsOnce sync.Once
	cost      []int64
	rootWords []int
}

// BagLayout is the order one bag's labels and their distance vectors are
// stored in, fixed by the tree and the view: labels, and every LeafTo, follow
// Keys; every To and From follows Sep. The snapshot codec maps its sorted
// on-disk lists to these positions; everything else reaches a position
// through the Label that carries it.
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
	// every labeling over the tree.
	Nodes  []DDGNode
	RepsOf map[int][]int
}

// bagPlan is the rest of a bag's length-independent structure: what only
// the pass reads.
type bagPlan struct {
	// Leaf bags: the CSR skeleton of the bag's graph over positions in Keys,
	// arcs sorted by tail; leafDart[i] is the dart whose length arc i takes.
	leafStart []int32
	leafTo    []int32
	leafDart  []planar.Dart

	// Non-leaf bags: each separator key's representatives, each child's
	// share of the separator, and the cross and zero arcs in DDG arc order
	// (cross lengths are filled in per pass).
	sepReps   [][]int // by position in Sep
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
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
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

func newPlan(t *bdd.BDD, v *view) (*plan, error) {
	pl := &plan{
		t:     t,
		v:     v,
		lay:   make([]BagLayout, len(t.Bags)),
		bags:  make([]bagPlan, len(t.Bags)),
		every: make([][]int, len(t.Bags)),
	}
	for _, b := range t.Bags {
		if b.Level < 0 || b.Level >= t.Depth {
			return nil, fmt.Errorf("label: bag %d at level %d of a %d-level tree", b.ID, b.Level, t.Depth)
		}
		lay := &pl.lay[b.ID]
		lay.Keys = v.keys(t.G, b)
		lay.KeyOrder = argsort(lay.Keys)
		pl.every[b.ID] = lay.Keys
	}
	// key -> position in the current bag and in each of its children; -1
	// when absent.
	pos := absent(v.numKeys(t.G))
	cpos := [2][]int32{absent(len(pos)), absent(len(pos))}
	for _, b := range t.Bags {
		lay, bp := &pl.lay[b.ID], &pl.bags[b.ID]
		for i, k := range lay.Keys {
			pos[k] = int32(i)
		}
		var err error
		if b.IsLeaf() {
			pl.leafSkeleton(b, bp, pos)
		} else {
			for ci, c := range b.Children {
				for i, k := range pl.lay[c.ID].Keys {
					cpos[ci][k] = int32(i)
				}
			}
			err = pl.ddgSkeleton(b, lay, bp, pos, cpos)
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
	pl.probe = pl.probeSets()
	return pl, nil
}

func absent(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// probeSets derives the probe's wanted sets, top-down: the root wants
// nothing and wanted(child) = (sep(parent) ∪ wanted(parent)) ∩ keys(child).
func (pl *plan) probeSets() [][]int {
	t := pl.t
	wanted := make([][]int, len(t.Bags))
	need := make([]bool, pl.v.numKeys(t.G))
	// Parents precede children in ID order, so wanted[b.ID] is final when b
	// is reached.
	for _, b := range t.Bags {
		if b.IsLeaf() {
			continue
		}
		mark := func(v bool) {
			for _, k := range pl.lay[b.ID].Sep {
				need[k] = v
			}
			for _, k := range wanted[b.ID] {
				need[k] = v
			}
		}
		mark(true)
		for _, c := range b.Children {
			for _, k := range pl.lay[c.ID].Keys {
				if need[k] {
					wanted[c.ID] = append(wanted[c.ID], k)
				}
			}
		}
		mark(false)
	}
	return wanted
}

// costs derives cost and rootWords bottom-up, holding the Words() of a
// bag's labels by key position until its parent has read them. A label's
// Words() is 2 plus 2 per vector entry — a leaf's LeafTo over its keys, an
// internal bag's To and From over its separator — plus its Child's.
func (pl *plan) costs() {
	t := pl.t
	pl.cost = make([]int64, len(t.Bags))
	words := make([][]int, len(t.Bags))
	for i := len(t.Bags) - 1; i >= 0; i-- {
		b, lay, bp := t.Bags[i], &pl.lay[i], &pl.bags[i]
		w := make([]int, len(lay.Keys))
		cost := int64(b.TreeDepth)
		if b.IsLeaf() {
			cost += int64(len(w))
			for j := range w {
				w[j] = 2 + 2*len(w)
			}
		} else {
			for ci, c := range b.Children {
				for _, e := range bp.childSep[ci] {
					cost += int64(words[c.ID][e.cpos])
				}
			}
			cost += int64(len(bp.crossArcs))
			for j := range w {
				if w[j] = 2 + 4*len(lay.Sep); lay.SepPos[j] < 0 {
					w[j] += words[b.Children[lay.ChildOf[j]].ID][lay.ChildPos[j]]
				}
			}
			for _, c := range b.Children {
				words[c.ID] = nil
			}
		}
		pl.cost[i], words[i] = cost, w
	}
	pl.rootWords = words[t.Root.ID]
}

// leafSkeleton lays out a leaf bag's graph in CSR form: its arcs over
// positions in Keys, counting-sorted by tail. pos maps the bag's keys to
// their positions; both ends of a leaf dart are keys of the bag in either
// view.
func (pl *plan) leafSkeleton(b *bdd.Bag, bp *bagPlan, pos []int32) {
	g, v := pl.t.G, pl.v
	n := len(pl.lay[b.ID].Keys)
	bp.leafStart = make([]int32, n+1)
	m := 0
	v.leafDarts(g, b, func(d planar.Dart) {
		from, _ := v.ends(g, d)
		bp.leafStart[pos[from]+1]++
		m++
	})
	for u := 0; u < n; u++ {
		bp.leafStart[u+1] += bp.leafStart[u]
	}
	bp.leafTo = make([]int32, m)
	bp.leafDart = make([]planar.Dart, m)
	next := append([]int32(nil), bp.leafStart[:n]...)
	v.leafDarts(g, b, func(d planar.Dart) {
		from, to := v.ends(g, d)
		i := next[pos[from]]
		next[pos[from]]++
		bp.leafTo[i], bp.leafDart[i] = pos[to], d
	})
}

// ddgSkeleton lays out a non-leaf bag: the separator and where every key
// sits relative to it and to the children, then the base DDG — a node per
// (child, separator key) incidence in separator order, and the arcs whose
// endpoints the tree fixes: (ii) the cross arcs and (iii) the zero arcs
// between the two representatives of a key both children hold. pos and cpos
// map keys to positions in b and in each child (-1 when absent). The error
// reports a bag that does not hang together with its children.
func (pl *plan) ddgSkeleton(b *bdd.Bag, lay *BagLayout, bp *bagPlan, pos []int32, cpos [2][]int32) error {
	g, v := pl.t.G, pl.v
	for _, c := range b.Children {
		for _, k := range pl.lay[c.ID].Keys {
			if pos[k] < 0 {
				return fmt.Errorf("key %d of child bag %d is not in the bag", k, c.ID)
			}
		}
	}
	var shared []int
	for _, k := range lay.Keys {
		if cpos[0][k] >= 0 && cpos[1][k] >= 0 {
			shared = append(shared, k)
		}
	}
	lay.Sep = v.sep(b, shared)
	lay.SepOrder = argsort(lay.Sep)
	lay.SepPos = absent(len(lay.Keys))
	index := make(map[DDGNode]int)
	lay.RepsOf = make(map[int][]int, len(lay.Sep))
	bp.sepReps = make([][]int, len(lay.Sep))
	for p, k := range lay.Sep {
		if pos[k] < 0 || lay.SepPos[pos[k]] >= 0 {
			return fmt.Errorf("separator key %d is not a key of the bag, once", k)
		}
		lay.SepPos[pos[k]] = int32(p)
		for ci := range b.Children {
			if cpos[ci][k] >= 0 {
				n := DDGNode{Child: ci, Key: k}
				index[n] = len(lay.Nodes)
				lay.RepsOf[k] = append(lay.RepsOf[k], len(lay.Nodes))
				lay.Nodes = append(lay.Nodes, n)
			}
		}
		bp.sepReps[p] = lay.RepsOf[k]
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
		for _, k := range lay.Sep {
			if cpos[ci][k] >= 0 {
				bp.childSep[ci] = append(bp.childSep[ci], sepEntry{key: k, cpos: cpos[ci][k], rep: index[DDGNode{ci, k}]})
			}
		}
	}
	for _, e := range v.crossEdges(b) {
		for _, d := range [2]planar.Dart{planar.ForwardDart(e), planar.BackwardDart(e)} {
			from, to := v.ends(g, d)
			tail, ok1 := index[DDGNode{b.SideOf(d), from}]
			head, ok2 := index[DDGNode{b.SideOf(planar.Rev(d)), to}]
			if !ok1 || !ok2 {
				return fmt.Errorf("cross edge %d does not join separator keys of the two children", e)
			}
			bp.crossArcs = append(bp.crossArcs, DDGArc{From: int32(tail), To: int32(head), Dart: int32(d)})
		}
	}
	for _, reps := range bp.sepReps {
		for _, i := range reps {
			for _, j := range reps {
				if i != j {
					bp.zeroArcs = append(bp.zeroArcs, DDGArc{From: int32(i), To: int32(j), Dart: int32(planar.NoDart)})
				}
			}
		}
	}
	return nil
}
