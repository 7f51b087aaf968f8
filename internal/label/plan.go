package label

import (
	"sync"

	"planarflow/internal/bdd"
	"planarflow/internal/planar"
)

// plan is everything a labeling pass reads off the tree alone, laid out
// through one view: per bag, its keys and the leaf arc list or the DDG
// skeleton, and the wanted sets a pass can be driven by. It does not depend
// on the lengths, so it is derived once per tree and view (planOf) and
// shared, read-only, by every pass over that tree.
type plan struct {
	t    *bdd.BDD
	v    *view
	bags []bagPlan // by bag ID

	// A pass labels in full, in each bag, the keys its wanted set lists for
	// that bag ID. every lists all keys of every bag: the full labeling.
	// probe lists only the keys whose labels decide NegCycle: wantedFrom an
	// empty root set — the child separator labels a bag's DDG is built from,
	// plus the Child chain those labels decode and count Words() through.
	// The source-directed sets (wantedFrom a root set of one key) add that
	// key's own Child chain and are derived per pass. Each list is a
	// subsequence of its bag's keys.
	every, probe [][]int
}

// bagPlan is the length-independent structure of one bag.
type bagPlan struct {
	keys []int

	// Leaf bags: the arcs of the bag's graph over positions in keys.
	leafArcs []leafArc

	// Non-leaf bags: the separator; per position in keys, the key's position
	// in sep (-1 outside it) and the child holding a key outside it; the DDG
	// nodes with their lookups (shared by the BagDDG of every labeling), each
	// separator key's representatives, each child's share of the separator,
	// and the cross and zero arcs in DDG arc order (cross lengths are filled
	// in per pass).
	sep       []int
	sepPos    []int
	childOf   []int8
	nodes     []DDGNode
	index     map[DDGNode]int
	repsOf    map[int][]int
	sepReps   [][]int // by position in sep
	childSep  [2][]sepEntry
	crossArcs []DDGArc
	zeroArcs  []DDGArc
}

type leafArc struct {
	dart     planar.Dart
	from, to int
}

// sepEntry is a separator key present in one child, with its DDG node for
// that child.
type sepEntry struct {
	key, rep int
}

// treePlans is what a tree memoizes for this package: one plan per view,
// each derived on first use, so a tree nobody labels through a view (one
// restored from a snapshot, say) never pays for that view's plan.
type treePlans [len(views)]struct {
	once sync.Once
	pl   *plan
}

func planOf(t *bdd.BDD, v *view) *plan {
	plans := t.Memo(func() any { return new(treePlans) }).(*treePlans)
	p := &plans[v.id]
	p.once.Do(func() { p.pl = newPlan(t, v) })
	return p.pl
}

func newPlan(t *bdd.BDD, v *view) *plan {
	pl := &plan{
		t:     t,
		v:     v,
		bags:  make([]bagPlan, len(t.Bags)),
		every: make([][]int, len(t.Bags)),
	}
	for _, b := range t.Bags {
		pl.bags[b.ID].keys = v.keys(t.G, b)
		pl.every[b.ID] = pl.bags[b.ID].keys
	}
	pos := make([]int, v.numKeys(t.G))  // key -> position in the current bag
	in := make([]uint8, v.numKeys(t.G)) // key -> bit ci set iff child ci holds it
	for _, b := range t.Bags {
		bp := &pl.bags[b.ID]
		for i, k := range bp.keys {
			pos[k] = i
		}
		if b.IsLeaf() {
			v.leafDarts(t.G, b, func(d planar.Dart) {
				from, to := v.ends(t.G, d)
				bp.leafArcs = append(bp.leafArcs, leafArc{dart: d, from: pos[from], to: pos[to]})
			})
			continue
		}
		for ci, c := range b.Children {
			for _, k := range pl.bags[c.ID].keys {
				in[k] |= 1 << ci
			}
		}
		pl.ddgSkeleton(b, bp, pos, in)
		for _, c := range b.Children {
			for _, k := range pl.bags[c.ID].keys {
				in[k] = 0
			}
		}
	}
	pl.probe = pl.wantedFrom(nil)
	return pl
}

// wantedFrom derives the wanted sets a root set induces, top-down:
// wanted(root) = seed and wanted(child) = (sep(parent) ∪ wanted(parent)) ∩
// keys(child). seed must be a subsequence of the root's keys.
func (pl *plan) wantedFrom(seed []int) [][]int {
	t := pl.t
	wanted := make([][]int, len(t.Bags))
	wanted[t.Root.ID] = seed
	need := make([]bool, pl.v.numKeys(t.G))
	// Parents precede children in ID order, so wanted[b.ID] is final when b
	// is reached.
	for _, b := range t.Bags {
		if b.IsLeaf() {
			continue
		}
		mark := func(v bool) {
			for _, k := range pl.bags[b.ID].sep {
				need[k] = v
			}
			for _, k := range wanted[b.ID] {
				need[k] = v
			}
		}
		mark(true)
		for _, c := range b.Children {
			for _, k := range pl.bags[c.ID].keys {
				if need[k] {
					wanted[c.ID] = append(wanted[c.ID], k)
				}
			}
		}
		mark(false)
	}
	return wanted
}

// ddgSkeleton lays out the base DDG of a non-leaf bag: a node per (child,
// separator key) incidence in separator order, and the arcs whose endpoints
// the tree fixes — (ii) the cross arcs and (iii) the zero arcs between the
// two representatives of a key both children hold. pos and in describe b:
// each key's position in bp.keys and which children hold it.
func (pl *plan) ddgSkeleton(b *bdd.Bag, bp *bagPlan, pos []int, in []uint8) {
	g, v := pl.t.G, pl.v
	var shared []int
	bp.sepPos = make([]int, len(bp.keys))
	bp.childOf = make([]int8, len(bp.keys))
	for i, k := range bp.keys {
		bp.sepPos[i] = -1
		bp.childOf[i] = int8(in[k] >> 1) // held by child 1 alone, else child 0
		if in[k] == 3 {
			shared = append(shared, k)
		}
	}
	bp.sep = v.sep(b, shared)
	bp.index = make(map[DDGNode]int)
	bp.repsOf = make(map[int][]int, len(bp.sep))
	bp.sepReps = make([][]int, len(bp.sep))
	for p, k := range bp.sep {
		bp.sepPos[pos[k]] = p
		for ci := range b.Children {
			if in[k]&(1<<ci) != 0 {
				n := DDGNode{Child: ci, Key: k}
				bp.index[n] = len(bp.nodes)
				bp.repsOf[k] = append(bp.repsOf[k], len(bp.nodes))
				bp.nodes = append(bp.nodes, n)
			}
		}
		bp.sepReps[p] = bp.repsOf[k]
	}
	for ci := range b.Children {
		for _, k := range bp.sep {
			if in[k]&(1<<ci) != 0 {
				bp.childSep[ci] = append(bp.childSep[ci], sepEntry{key: k, rep: bp.index[DDGNode{ci, k}]})
			}
		}
	}
	for _, e := range v.crossEdges(b) {
		for _, d := range [2]planar.Dart{planar.ForwardDart(e), planar.BackwardDart(e)} {
			from, to := v.ends(g, d)
			bp.crossArcs = append(bp.crossArcs, DDGArc{
				From: bp.index[DDGNode{int(b.Sep.Side[d]), from}],
				To:   bp.index[DDGNode{int(b.Sep.Side[planar.Rev(d)]), to}],
				Dart: d,
			})
		}
	}
	for _, reps := range bp.sepReps {
		for _, i := range reps {
			for _, j := range reps {
				if i != j {
					bp.zeroArcs = append(bp.zeroArcs, DDGArc{From: i, To: j, Dart: planar.NoDart})
				}
			}
		}
	}
}
