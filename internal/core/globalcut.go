package core

import (
	"errors"
	"fmt"
	"math/bits"

	"planarflow/internal/artifact"
	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// GlobalCutResult is a directed global minimum cut: a bisection (Side,
// complement) minimizing the total weight of edges leaving Side.
type GlobalCutResult struct {
	Value    int64
	Side     []bool
	CutEdges []int // edges leaving Side
}

// GlobalMinCut computes the directed global minimum cut of a weighted planar
// digraph (Thm 1.5): by cycle-cut duality the answer is the minimum-weight
// directed cycle of the dual where crossing an edge against its direction is
// free (reversal darts of weight 0, §7). The cycle is found over the BDD:
// cycles inside a bag's child are found recursively; cycles crossing the
// dual separator F_X are enumerated per separator arc a as w(a) +
// dist(head(a), tail(a)) in the bag's DDG with rev(a) removed, plus
// zero-transition cycles through faces split between the children — the
// "two options related to the dual separator" that keep all candidate
// cycles simple in darts.
func GlobalMinCut(p *artifact.Prepared, opt Options, led *ledger.Ledger) (*GlobalCutResult, error) {
	g := p.Graph()
	for e := 0; e < g.M(); e++ {
		if g.Edge(e).Weight < 0 {
			return nil, fmt.Errorf("core: global min cut: edge %d has weight %d: %w", e, g.Edge(e).Weight, ErrNegativeWeight)
		}
	}
	// Zero cuts = not strongly connected (Õ(D) rounds of directed BFS both
	// ways, charged below).
	if res := zeroCut(g, led); res != nil {
		return res, nil
	}

	// Dual lengths: crossing e forward costs w(e); crossing against it is
	// free (reversal dart). The labeling under these lengths is a shared
	// artifact — the query's own work is the per-bag cycle enumeration.
	lengths := artifact.Lengths(g, artifact.FreeReversal)
	tree, err := p.Tree(opt.LeafLimit, led)
	if err != nil {
		return nil, err
	}
	la, err := p.DualLabels(artifact.FreeReversal, opt.LeafLimit, led)
	if err != nil {
		return nil, err
	}
	if la.NegCycle {
		return nil, errors.New("core: internal: negative cycle with non-negative lengths")
	}

	best := spath.Inf
	for _, b := range tree.Bags {
		var cand int64
		if b.IsLeaf() {
			cand = leafMinCycle(g, b, lengths)
		} else {
			cand = ddgMinCycle(la.DDG(b))
		}
		if cand < best {
			best = cand
		}
	}
	logn := int64(bits.Len(uint(g.N())))
	d := int64(tree.Root.TreeDepth + 2)
	led.Charge("globalcut/assemble", d*logn)
	if best >= spath.Inf {
		return nil, errors.New("core: no dual cycle found in a strongly connected graph")
	}

	// Reconstruct the bisection from the value on the explicit dual (one
	// more Õ(D²)-style phase, §7's component detection).
	side, cut, err := reconstructCut(g, lengths, best)
	if err != nil {
		return nil, err
	}
	led.Charge("globalcut/reconstruct", d*d*logn)
	return &GlobalCutResult{Value: best, Side: side, CutEdges: cut}, nil
}

// zeroCut returns a weight-0 cut when g is not strongly connected, else nil.
func zeroCut(g *planar.Graph, led *ledger.Ledger) *GlobalCutResult {
	reach := func(backward bool) []bool {
		seen := make([]bool, g.N())
		seen[0] = true
		stack := []int{0}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, d := range g.Rotation(v) {
				// Forward reachability follows edge direction: usable darts
				// are forward darts; backward reachability uses reversals.
				if planar.IsForward(d) == backward {
					continue
				}
				u := g.Head(d)
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		return seen
	}
	led.Charge("globalcut/strong-connectivity", int64(4*(g.DiameterLowerBound()+1)))
	fwd := reach(false)
	all := true
	for _, ok := range fwd {
		all = all && ok
	}
	if !all {
		return &GlobalCutResult{Value: 0, Side: fwd}
	}
	bwd := reach(true)
	all = true
	for _, ok := range bwd {
		all = all && ok
	}
	if !all {
		side := make([]bool, g.N())
		for v, ok := range bwd {
			side[v] = !ok
		}
		return &GlobalCutResult{Value: 0, Side: side}
	}
	return nil
}

// leafMinCycle finds the minimum dart-simple dual cycle inside a leaf bag:
// for every dual arc a, w(a) + dist(head(a) -> tail(a)) avoiding rev(a).
func leafMinCycle(g *planar.Graph, b *bdd.Bag, lengths []int64) int64 {
	idx := make(map[int]int, len(b.Faces))
	for i, f := range b.Faces {
		idx[f] = i
	}
	type arc struct {
		d        planar.Dart
		from, to int
	}
	var arcs []arc
	b.DualArcs(g, func(d planar.Dart, from, to int) {
		if lengths[d] < spath.Inf {
			arcs = append(arcs, arc{d: d, from: idx[from], to: idx[to]})
		}
	})
	best := spath.Inf
	for _, a := range arcs {
		if lengths[a.d] >= best {
			continue
		}
		if a.from == a.to {
			// Dual self-loop: valid cycle by itself.
			if lengths[a.d] < best {
				best = lengths[a.d]
			}
			continue
		}
		dg := spath.NewDigraph(len(b.Faces))
		for _, o := range arcs {
			if o.d == planar.Rev(a.d) {
				continue
			}
			dg.AddArc(o.from, o.to, lengths[o.d], int(o.d))
		}
		if back := spath.Dijkstra(dg, a.to).Dist[a.from]; back < spath.Inf {
			if c := lengths[a.d] + back; c < best {
				best = c
			}
		}
	}
	return best
}

// ddgMinCycle enumerates cycles crossing a bag's dual separator: per
// separator arc, and per split face via its zero transitions.
func ddgMinCycle(ddg *label.BagDDG) int64 {
	best := spath.Inf
	build := func(skip func(a label.DDGArc) bool) *spath.Digraph {
		dg := spath.NewDigraph(len(ddg.Nodes))
		for _, a := range ddg.Arcs {
			if skip(a) {
				continue
			}
			dg.AddArc(a.From, a.To, a.Len, -1)
		}
		return dg
	}
	// (1) Cycles using a dual separator arc a (and hence not rev(a)).
	for _, a := range ddg.Arcs {
		if a.Dart == planar.NoDart || a.Len >= best {
			continue
		}
		rev := planar.Rev(a.Dart)
		dg := build(func(o label.DDGArc) bool { return o.Dart == rev })
		if back := spath.Dijkstra(dg, a.To).Dist[a.From]; back < spath.Inf {
			if c := a.Len + back; c < best {
				best = c
			}
		}
	}
	// (2) Cycles through a split face f without separator arcs at f: they
	// enter one representative and leave the other; forbid f's internal
	// zero arcs so the path is forced around.
	for f, reps := range ddg.RepsOf {
		if len(reps) < 2 {
			continue
		}
		inReps := map[int]bool{}
		for _, r := range reps {
			inReps[r] = true
		}
		dg := build(func(o label.DDGArc) bool {
			return o.Dart == planar.NoDart && o.Len == 0 && inReps[o.From] && inReps[o.To]
		})
		for _, r1 := range reps {
			dist := spath.Dijkstra(dg, r1).Dist
			for _, r2 := range reps {
				if r1 != r2 && dist[r2] < best {
					best = dist[r2]
				}
			}
		}
		_ = f
	}
	return best
}

// reconstructCut locates a dual cycle of exactly the given weight on the
// explicit dual, removes its crossed edges and reads off the bisection.
func reconstructCut(g *planar.Graph, lengths []int64, value int64) ([]bool, []int, error) {
	du := g.Dual()
	nf := du.NumNodes()
	for d0 := planar.Dart(0); int(d0) < g.NumDarts(); d0++ {
		if lengths[d0] > value {
			continue
		}
		from, to := du.Tail(d0), du.Head(d0)
		var cycleDarts []planar.Dart
		if from == to {
			if lengths[d0] != value {
				continue
			}
			cycleDarts = []planar.Dart{d0}
		} else {
			dg := spath.NewDigraph(nf)
			for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
				if d != planar.Rev(d0) && lengths[d] < spath.Inf {
					dg.AddArc(du.Tail(d), du.Head(d), lengths[d], int(d))
				}
			}
			res := spath.Dijkstra(dg, to)
			if res.Dist[from] >= spath.Inf || lengths[d0]+res.Dist[from] != value {
				continue
			}
			cycleDarts = append(cycleDarts, d0)
			for v := from; v != to; {
				a := res.ParentArcID[v]
				cycleDarts = append(cycleDarts, planar.Dart(a))
				v = du.Tail(planar.Dart(a))
			}
		}
		side, cut, err := cutFromCycle(g, cycleDarts, value)
		if err == nil {
			return side, cut, nil
		}
	}
	return nil, nil, fmt.Errorf("core: could not reconstruct a cut of weight %d", value)
}

// cutFromCycle removes the edges crossed by the dual cycle and identifies
// the side whose leaving-edge weight equals value.
func cutFromCycle(g *planar.Graph, cycleDarts []planar.Dart, value int64) ([]bool, []int, error) {
	crossed := make(map[int]bool, len(cycleDarts))
	for _, d := range cycleDarts {
		crossed[planar.EdgeOf(d)] = true
	}
	comp := make([]int, g.N())
	for v := range comp {
		comp[v] = -1
	}
	numComp := 0
	for v := 0; v < g.N(); v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = numComp
		stack := []int{v}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, d := range g.Rotation(x) {
				if crossed[planar.EdgeOf(d)] {
					continue
				}
				u := g.Head(d)
				if comp[u] == -1 {
					comp[u] = numComp
					stack = append(stack, u)
				}
			}
		}
		numComp++
	}
	if numComp < 2 {
		return nil, nil, errors.New("cycle does not disconnect")
	}
	// Try each component (and its complement) as the S side.
	for c := 0; c < numComp; c++ {
		for _, invert := range []bool{false, true} {
			side := make([]bool, g.N())
			for v := range side {
				side[v] = (comp[v] == c) != invert
			}
			var w int64
			var cut []int
			for e := 0; e < g.M(); e++ {
				ed := g.Edge(e)
				if side[ed.U] && !side[ed.V] {
					w += ed.Weight
					cut = append(cut, e)
				}
			}
			if w == value && anyTrue(side) && !allTrue(side) {
				return side, cut, nil
			}
		}
	}
	return nil, nil, errors.New("no orientation matches the cut value")
}

func anyTrue(b []bool) bool {
	for _, x := range b {
		if x {
			return true
		}
	}
	return false
}

func allTrue(b []bool) bool {
	for _, x := range b {
		if !x {
			return false
		}
	}
	return true
}
