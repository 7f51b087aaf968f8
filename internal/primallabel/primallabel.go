// Package primallabel implements the primal distance labeling of Li–Parter
// [27] over the same Bounded Diameter Decomposition the dual labeling uses:
// every vertex of every bag receives a label storing its distances to the
// bag's separator vertices, so that primal distances decode from two labels
// alone in Õ(D) bits per label and Õ(D²) construction rounds.
//
// The paper's minimum st-cut (Thm 6.1) consumes this as its final step: the
// residual-reachability query is an SSSP on the primal graph with residual
// dart lengths, solved by [27]'s algorithm. Lengths are per-dart: dart d
// contributes an arc Tail(d) -> Head(d) of length lengths[d] (spath.Inf
// deactivates it), so directed residual graphs are expressed directly.
package primallabel

import (
	"context"
	"fmt"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// Label is the distance label of one vertex within one bag.
type Label struct {
	Bag    *bdd.Bag
	Vertex int

	// To[f] / From[f] are distances vertex->f / f->vertex within the bag,
	// for every separator vertex f (non-leaf bags).
	To, From map[int]int64

	// Child is the recursive label in the unique child containing the
	// vertex (nil for separator vertices and leaves).
	Child *Label

	// Leaf labels store distances to/from every vertex of the leaf bag.
	LeafTo, LeafFrom map[int]int64
}

// Words returns the label size in O(log n)-bit words.
func (l *Label) Words() int {
	w := 2
	if l.LeafTo != nil {
		w += 2 * len(l.LeafTo)
	}
	w += 2 * (len(l.To) + len(l.From))
	if l.Child != nil {
		w += l.Child.Words()
	}
	return w
}

// Decode returns dist(a.Vertex -> b.Vertex) within the bag both labels
// belong to.
func Decode(a, b *Label) int64 {
	if a.Vertex == b.Vertex {
		return 0
	}
	if a.LeafTo != nil {
		if d, ok := a.LeafTo[b.Vertex]; ok {
			return d
		}
		return spath.Inf
	}
	if d, ok := a.To[b.Vertex]; ok {
		return d
	}
	if d, ok := b.From[a.Vertex]; ok {
		return d
	}
	best := spath.Inf
	for f, da := range a.To {
		if db, ok := b.From[f]; ok && da < spath.Inf && db < spath.Inf && da+db < best {
			best = da + db
		}
	}
	if a.Child != nil && b.Child != nil && a.Child.Bag == b.Child.Bag {
		if d := Decode(a.Child, b.Child); d < best {
			best = d
		}
	}
	return best
}

// Labeling holds vertex labels for every bag under one length assignment.
type Labeling struct {
	T        *bdd.BDD
	Lengths  []int64
	NegCycle bool

	byBag []map[int]*Label
}

// Compute runs the labeling bottom-up, mirroring §5.3 with vertices in the
// role of dual nodes and the separator vertex set S_X (plus vertices shared
// between children) in the role of F_X.
func Compute(t *bdd.BDD, lengths []int64, led *ledger.Ledger) *Labeling {
	la, _ := ComputeContext(context.Background(), t, lengths, led)
	return la
}

// ComputeContext is Compute with a cancellation checkpoint before every
// bag: a canceled context aborts the remaining bottom-up pass and returns
// ctx.Err() with a nil labeling, charging nothing (level charges are
// emitted only on completion).
func ComputeContext(ctx context.Context, t *bdd.BDD, lengths []int64, led *ledger.Ledger) (*Labeling, error) {
	la := &Labeling{
		T:       t,
		Lengths: lengths,
		byBag:   make([]map[int]*Label, len(t.Bags)),
	}
	levelCost := map[int]int64{}
	// verts[id] is bag id's vertex list, computed when the bag is reached;
	// children have larger IDs, so a parent finds its children's lists ready.
	verts := make([][]int, len(t.Bags))
	for i := len(t.Bags) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := t.Bags[i]
		verts[i] = bagVertices(t.G, b)
		var cost int64
		if b.IsLeaf() {
			cost = la.computeLeaf(b, verts[i])
		} else {
			cost = la.computeInternal(b, verts)
		}
		if la.NegCycle {
			led.Charge("primal-label/negative-cycle-abort", int64(b.TreeDepth+1))
			return la, nil
		}
		if cost > levelCost[b.Level] {
			levelCost[b.Level] = cost
		}
	}
	for lvl := 0; lvl < t.Depth; lvl++ {
		led.Charge(fmt.Sprintf("primal-label/level-%02d", lvl), 2*levelCost[lvl])
	}
	return la, nil
}

// Label returns the label of vertex v in bag b (nil if absent).
func (la *Labeling) Label(b *bdd.Bag, v int) *Label { return la.byBag[b.ID][v] }

// FootprintBytes estimates the resident memory of the labeling: every
// bag's vertex-label maps (Child pointers reference labels counted in
// their own bag and add nothing). An accounting estimate for eviction
// budgeting; maps count entries at the ~48 bytes/entry rule of thumb.
// The BDD is accounted separately.
func (la *Labeling) FootprintBytes() int64 {
	const (
		mapEntry   = 48
		labelFixed = 96
	)
	var b int64
	for _, labels := range la.byBag {
		b += int64(len(labels)) * mapEntry
		for _, l := range labels {
			b += labelFixed
			b += int64(len(l.To)+len(l.From)+len(l.LeafTo)+len(l.LeafFrom)) * mapEntry
		}
	}
	return b
}

// Dist returns dist(u -> v) in the full graph.
func (la *Labeling) Dist(u, v int) int64 {
	if la.NegCycle {
		return spath.Inf
	}
	a, b := la.byBag[0][u], la.byBag[0][v]
	if a == nil || b == nil {
		return spath.Inf
	}
	return Decode(a, b)
}

// SSSP decodes single-source distances from src to every vertex and charges
// the label broadcast (Õ(D) words over a depth-D tree).
func (la *Labeling) SSSP(src int, led *ledger.Ledger) []int64 {
	g := la.T.G
	dist := make([]int64, g.N())
	srcLab := la.byBag[0][src]
	for v := 0; v < g.N(); v++ {
		if la.NegCycle || srcLab == nil || la.byBag[0][v] == nil {
			dist[v] = spath.Inf
			continue
		}
		dist[v] = Decode(srcLab, la.byBag[0][v])
	}
	words := 0
	if srcLab != nil {
		words = srcLab.Words()
	}
	led.Charge("primal-sssp/broadcast-label",
		ledger.PipelinedBroadcastRounds(int64(la.T.Root.TreeDepth), int64(words)))
	return dist
}

// bagVertices collects the vertices of a bag (endpoints of its darts).
func bagVertices(g *planar.Graph, b *bdd.Bag) []int {
	seen := make(map[int]bool, len(b.Darts))
	var out []int
	for _, d := range b.Darts {
		for _, v := range [2]int{g.Tail(d), g.Head(d)} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// arcsOf enumerates the directed arcs available inside a bag: both darts of
// every bag edge, with the caller's per-dart lengths.
func (la *Labeling) arcsOf(b *bdd.Bag, visit func(d planar.Dart, from, to int)) {
	g := la.T.G
	for e := 0; e < g.M(); e++ {
		if !b.EdgeIn[e] {
			continue
		}
		for _, d := range []planar.Dart{planar.ForwardDart(e), planar.BackwardDart(e)} {
			if la.Lengths[d] < spath.Inf {
				visit(d, g.Tail(d), g.Head(d))
			}
		}
	}
}

func (la *Labeling) computeLeaf(b *bdd.Bag, verts []int) int64 {
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	dg := spath.NewDigraph(len(verts))
	arcs := 0
	la.arcsOf(b, func(d planar.Dart, from, to int) {
		dg.AddArc(idx[from], idx[to], la.Lengths[d], int(d))
		arcs++
	})
	all, ok := spath.APSPBellmanFord(dg)
	if !ok {
		la.NegCycle = true
		return 0
	}
	labels := make(map[int]*Label, len(verts))
	for i, v := range verts {
		l := &Label{
			Bag: b, Vertex: v,
			LeafTo:   make(map[int]int64, len(verts)),
			LeafFrom: make(map[int]int64, len(verts)),
		}
		for j, u := range verts {
			l.LeafTo[u] = all[i][j]
			l.LeafFrom[u] = all[j][i]
		}
		labels[v] = l
	}
	la.byBag[b.ID] = labels
	return int64(b.TreeDepth + len(verts) + arcs)
}

func (la *Labeling) computeInternal(b *bdd.Bag, verts [][]int) int64 {
	// Separator vertex set: vertices present in both children (this
	// contains the S_X cycle vertices; shared hole vertices join too).
	childVerts := [2]map[int]bool{{}, {}}
	for ci, c := range b.Children {
		for _, v := range verts[c.ID] {
			childVerts[ci][v] = true
		}
	}
	var sep []int
	inSep := map[int]bool{}
	for v := range childVerts[0] {
		if childVerts[1][v] {
			sep = append(sep, v)
			inSep[v] = true
		}
	}

	// Base DDG over (child, vertex) representatives of separator vertices.
	type node struct{ child, v int }
	index := map[node]int{}
	var nodes []node
	repsOf := map[int][]int{}
	for _, v := range sep {
		for ci := range b.Children {
			if childVerts[ci][v] {
				n := node{ci, v}
				index[n] = len(nodes)
				repsOf[v] = append(repsOf[v], len(nodes))
				nodes = append(nodes, n)
			}
		}
	}
	base := spath.NewDigraph(len(nodes) + 1)
	broadcastWords := 0
	childSep := [2][]int{}
	for ci := range b.Children {
		for _, v := range sep {
			if childVerts[ci][v] {
				childSep[ci] = append(childSep[ci], v)
			}
		}
		for _, v1 := range childSep[ci] {
			l1 := la.byBag[b.Children[ci].ID][v1]
			broadcastWords += l1.Words()
			for _, v2 := range childSep[ci] {
				if v1 == v2 {
					continue
				}
				if w := Decode(l1, la.byBag[b.Children[ci].ID][v2]); w < spath.Inf {
					base.AddArc(index[node{ci, v1}], index[node{ci, v2}], w, -1)
				}
			}
		}
	}
	for _, v := range sep {
		reps := repsOf[v]
		for i := 0; i < len(reps); i++ {
			for j := 0; j < len(reps); j++ {
				if i != j {
					base.AddArc(reps[i], reps[j], 0, -1)
				}
			}
		}
	}
	// Negative-cycle check across the separator.
	super := len(nodes)
	for i := range nodes {
		base.AddArc(super, i, 0, -1)
	}
	if _, ok := spath.BellmanFord(base, super); !ok {
		la.NegCycle = true
		return 0
	}
	// All-pairs over the base nodes.
	mat := make([][]int64, len(nodes))
	for i := range nodes {
		res, _ := spath.BellmanFord(base, i)
		mat[i] = res.Dist[:len(nodes)]
	}
	minReps := func(from, to []int) int64 {
		best := spath.Inf
		for _, i := range from {
			for _, j := range to {
				if mat[i][j] < best {
					best = mat[i][j]
				}
			}
		}
		return best
	}

	// Labels for every vertex of the bag.
	labels := make(map[int]*Label)
	to := make([]int64, len(sep)) // by position in sep
	from := make([]int64, len(sep))
	for _, v := range verts[b.ID] {
		l := &Label{
			Bag: b, Vertex: v,
			To:   make(map[int]int64, len(sep)),
			From: make(map[int]int64, len(sep)),
		}
		if inSep[v] {
			for _, f := range sep {
				l.To[f] = minReps(repsOf[v], repsOf[f])
				l.From[f] = minReps(repsOf[f], repsOf[v])
			}
		} else {
			ci := 0
			if childVerts[1][v] {
				ci = 1
			}
			child := b.Children[ci]
			lv := la.byBag[child.ID][v]
			l.Child = lv
			for q := range sep {
				to[q], from[q] = spath.Inf, spath.Inf
			}
			for _, fp := range childSep[ci] {
				lp := la.byBag[child.ID][fp]
				rep := index[node{ci, fp}]
				dgo, dback := Decode(lv, lp), Decode(lp, lv)
				if dgo < spath.Inf {
					for q, f := range sep {
						for _, hr := range repsOf[f] {
							if dd := mat[rep][hr]; dd < spath.Inf && dgo+dd < to[q] {
								to[q] = dgo + dd
							}
						}
					}
				}
				if dback < spath.Inf {
					for q, f := range sep {
						for _, hr := range repsOf[f] {
							if dd := mat[hr][rep]; dd < spath.Inf && dd+dback < from[q] {
								from[q] = dd + dback
							}
						}
					}
				}
			}
			for q, f := range sep {
				l.To[f] = to[q]
				l.From[f] = from[q]
			}
		}
		labels[v] = l
	}
	la.byBag[b.ID] = labels
	return int64(b.TreeDepth + broadcastWords)
}
