package label

import (
	"planarflow/internal/bdd"
	"planarflow/internal/planar"
)

// View names the graph a labeling measures: Dual is G* (keys are faces,
// §5), Primal is G (keys are vertices, [27]). Callers pick it by their
// problem; it is not a tuning knob.
type View uint8

const (
	Dual View = iota
	Primal
)

func (v View) String() string { return views[v].name }

// view is what the one labeling pass needs to know about the graph it
// labels (the package comment tabulates both): how newPlan lays a bag out,
// and what the pass and the SSSP over its result are charged.
type view struct {
	id         View
	name       string
	phase      string // ledger phase prefix of the labeling pass
	congestion int64  // factor on a level's broadcast cost
	retainsDDG bool   // a full Labeling keeps every bag's base DDG
	marksTree  bool   // SSSP marks a shortest-path tree (Lemma 2.2)

	// SSSP over the labeling's two ledger phases: the source's label
	// broadcast and, where it marks one, the shortest-path tree.
	broadcastPhase, markPhase string

	// numKeys bounds the key space: keys are in [0, numKeys(g)).
	numKeys func(g *planar.Graph) int
	// ends returns the keys the arc of dart d runs between.
	ends func(g *planar.Graph, d planar.Dart) (from, to int)
	// keys lists the keys of a bag, each once, in an order fixed by the tree.
	// seen is key-indexed scratch, -1 everywhere on entry and on return.
	keys func(g *planar.Graph, b *bdd.Bag, seen []int32) []int
	// sep lists the separator keys of a non-leaf bag whose keys are keys;
	// cpos maps a key to its position in each child (-1 when absent).
	sep func(b *bdd.Bag, keys []int, cpos [2][]int32) []int
	// bagDarts visits the darts whose arcs make up a bag's own graph, the
	// graph its labels measure distances in: a leaf's whole graph, and in a
	// non-leaf bag the arcs its children's graphs hold plus its cross arcs.
	bagDarts func(g *planar.Graph, b *bdd.Bag, visit func(planar.Dart))
	// holds reports whether the arc of dart d is in b's own graph.
	holds func(b *bdd.Bag, d planar.Dart) bool
	// crossEdges lists the edges whose two darts each cross between the
	// children of a non-leaf bag (arcs of the bag that no child holds).
	crossEdges func(b *bdd.Bag) []int
}

var views = [...]*view{
	Dual: {
		id: Dual, name: "dual", phase: "label",
		broadcastPhase: "dual-sssp/broadcast-label", markPhase: "dual-sssp/mark-tree",
		// Bags of a level run in parallel at 2x congestion (property 7); Ĝ
		// simulation costs another 2x.
		congestion: 4, retainsDDG: true, marksTree: true,
		numKeys: func(g *planar.Graph) int { return g.Faces().NumFaces() },
		ends: func(g *planar.Graph, d planar.Dart) (int, int) {
			fd := g.Faces()
			return fd.FaceOf(d), fd.FaceOf(planar.Rev(d))
		},
		keys: func(_ *planar.Graph, b *bdd.Bag, _ []int32) []int { return b.Faces },
		sep:  func(b *bdd.Bag, _ []int, _ [2][]int32) []int { return b.FX },
		bagDarts: func(g *planar.Graph, b *bdd.Bag, visit func(planar.Dart)) {
			b.DualArcs(g, func(d planar.Dart, _, _ int) { visit(d) })
		},
		holds:      func(b *bdd.Bag, d planar.Dart) bool { return b.Has(d) && b.Has(planar.Rev(d)) },
		crossEdges: func(b *bdd.Bag) []int { return b.DualSXEdges },
	},
	Primal: {
		id: Primal, name: "primal", phase: "primal-label",
		broadcastPhase: "primal-sssp/broadcast-label", markPhase: "primal-sssp/mark-tree",
		congestion: 2,
		numKeys:    func(g *planar.Graph) int { return g.N() },
		ends:       func(g *planar.Graph, d planar.Dart) (int, int) { return g.Tail(d), g.Head(d) },
		// The endpoints of the bag's darts in order of first sight: one pass
		// marks and counts them, the next lists each at its first sight and
		// unmarks it.
		keys: func(g *planar.Graph, b *bdd.Bag, seen []int32) []int {
			n := 0
			for _, d := range b.Darts {
				for _, v := range [2]int{g.Tail(d), g.Head(d)} {
					if seen[v] < 0 {
						seen[v] = 0
						n++
					}
				}
			}
			out := make([]int, 0, n)
			for _, d := range b.Darts {
				for _, v := range [2]int{g.Tail(d), g.Head(d)} {
					if seen[v] >= 0 {
						seen[v] = -1
						out = append(out, v)
					}
				}
			}
			return out
		},
		// The bag's vertices both children hold, in key order: they contain
		// the S_X cycle; shared hole vertices join too.
		sep: func(_ *bdd.Bag, keys []int, cpos [2][]int32) []int {
			shared := func(k int) bool { return cpos[0][k] >= 0 && cpos[1][k] >= 0 }
			n := 0
			for _, k := range keys {
				if shared(k) {
					n++
				}
			}
			out := make([]int, 0, n)
			for _, k := range keys {
				if shared(k) {
					out = append(out, k)
				}
			}
			return out
		},
		// Both darts of every edge with a dart in the bag.
		bagDarts: func(_ *planar.Graph, b *bdd.Bag, visit func(planar.Dart)) {
			for _, d := range b.Darts {
				visit(d)
				if !b.Has(planar.Rev(d)) {
					visit(planar.Rev(d))
				}
			}
		},
		holds:      func(b *bdd.Bag, d planar.Dart) bool { return b.Has(d) || b.Has(planar.Rev(d)) },
		crossEdges: func(*bdd.Bag) []int { return nil },
	},
}
