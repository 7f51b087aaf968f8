package duallabel

import (
	"planarflow/internal/bdd"
	"planarflow/internal/planar"
)

// plan is everything a labeling pass reads off the tree alone: per bag, the
// leaf arc list or the DDG skeleton, and the wanted sets a pass can be
// driven by. It does not depend on the lengths, so it is derived once per
// tree (bdd.BDD.Memo) and shared, read-only, by every pass over that tree.
type plan struct {
	t    *bdd.BDD
	bags []bagPlan // by bag ID

	// A pass labels in full, in each bag, the faces its wanted set lists for
	// that bag ID. every lists all faces of every bag: the full labeling.
	// probe lists only the faces whose labels decide NegCycle: wantedFrom an
	// empty root set — the child F_X labels a bag's DDG is built from, plus
	// the Child chain those labels decode and count Words() through. The
	// source-directed sets (wantedFrom a root set of one face) add that
	// face's own Child chain and are derived per pass. Each list is a
	// subsequence of its bag's Faces.
	every, probe [][]int
}

// bagPlan is the length-independent structure of one bag.
type bagPlan struct {
	// Leaf bags: the arcs of X* over positions in bag.Faces.
	leafArcs []leafArc

	// Non-leaf bags: the DDG nodes with their lookups (shared by the
	// BagDDG of every labeling), each F_X face's position and
	// representatives, each child's share of F_X, and the S_X and zero
	// arcs in DDG arc order (S_X lengths are filled in per pass).
	nodes    []DDGNode
	index    map[DDGNode]int
	repsOf   map[int][]int
	fxPos    map[int]int // face -> position in bag.FX
	fxReps   [][]int     // by position in bag.FX
	childFX  [2][]fxEntry
	sxArcs   []DDGArc
	zeroArcs []DDGArc
}

type leafArc struct {
	dart     planar.Dart
	from, to int
}

// fxEntry is an F_X face present in one child: its position in bag.FX and
// its DDG node for that child.
type fxEntry struct {
	face, pos, rep int
}

func planOf(t *bdd.BDD) *plan {
	return t.Memo(func() any { return newPlan(t) }).(*plan)
}

func newPlan(t *bdd.BDD) *plan {
	pl := &plan{
		t:     t,
		bags:  make([]bagPlan, len(t.Bags)),
		every: make([][]int, len(t.Bags)),
	}
	pos := make([]int, t.G.Faces().NumFaces()) // face -> position in the current leaf
	for _, b := range t.Bags {
		pl.every[b.ID] = b.Faces
		if b.IsLeaf() {
			for i, f := range b.Faces {
				pos[f] = i
			}
			arcs := &pl.bags[b.ID].leafArcs
			b.DualArcs(t.G, func(d planar.Dart, from, to int) {
				*arcs = append(*arcs, leafArc{dart: d, from: pos[from], to: pos[to]})
			})
			continue
		}
		pl.bags[b.ID] = ddgSkeleton(t.G, b)
	}
	pl.probe = pl.wantedFrom(nil)
	return pl
}

// wantedFrom derives the wanted sets a root set induces, top-down:
// wanted(root) = seed and wanted(child) = (F_X(parent) ∪ wanted(parent)) ∩
// Faces(child). seed must be a subsequence of the root's Faces.
func (pl *plan) wantedFrom(seed []int) [][]int {
	t := pl.t
	wanted := make([][]int, len(t.Bags))
	wanted[t.Root.ID] = seed
	need := make([]bool, t.G.Faces().NumFaces())
	// Parents precede children in ID order, so wanted[b.ID] is final when b
	// is reached.
	for _, b := range t.Bags {
		if b.IsLeaf() {
			continue
		}
		mark := func(v bool) {
			for _, f := range b.FX {
				need[f] = v
			}
			for _, f := range wanted[b.ID] {
				need[f] = v
			}
		}
		mark(true)
		for _, c := range b.Children {
			for _, f := range c.Faces {
				if need[f] {
					wanted[c.ID] = append(wanted[c.ID], f)
				}
			}
		}
		mark(false)
	}
	return wanted
}

// ddgSkeleton lays out the base DDG of a non-leaf bag: a node per (child,
// F_X face) incidence in F_X order, and the arcs whose endpoints the tree
// fixes — (ii) the dual S_X arcs and (iii) the zero arcs between the two
// representatives of a partitioned face.
func ddgSkeleton(g *planar.Graph, b *bdd.Bag) bagPlan {
	fd := g.Faces()
	bp := bagPlan{
		index:  make(map[DDGNode]int),
		repsOf: make(map[int][]int, len(b.FX)),
		fxPos:  make(map[int]int, len(b.FX)),
		fxReps: make([][]int, len(b.FX)),
	}
	for p, f := range b.FX {
		bp.fxPos[f] = p
		for ci, c := range b.Children {
			if c.FaceSet[f] {
				n := DDGNode{Child: ci, Face: f}
				bp.index[n] = len(bp.nodes)
				bp.repsOf[f] = append(bp.repsOf[f], len(bp.nodes))
				bp.nodes = append(bp.nodes, n)
			}
		}
		bp.fxReps[p] = bp.repsOf[f]
	}
	for ci, c := range b.Children {
		for p, f := range b.FX {
			if c.FaceSet[f] {
				bp.childFX[ci] = append(bp.childFX[ci], fxEntry{face: f, pos: p, rep: bp.index[DDGNode{ci, f}]})
			}
		}
	}
	for _, e := range b.DualSXEdges {
		for _, d := range [2]planar.Dart{planar.ForwardDart(e), planar.BackwardDart(e)} {
			bp.sxArcs = append(bp.sxArcs, DDGArc{
				From: bp.index[DDGNode{int(b.Sep.Side[d]), fd.FaceOf(d)}],
				To:   bp.index[DDGNode{int(b.Sep.Side[planar.Rev(d)]), fd.FaceOf(planar.Rev(d))}],
				Dart: d,
			})
		}
	}
	for _, reps := range bp.fxReps {
		for _, i := range reps {
			for _, j := range reps {
				if i != j {
					bp.zeroArcs = append(bp.zeroArcs, DDGArc{From: i, To: j, Dart: planar.NoDart})
				}
			}
		}
	}
	return bp
}
