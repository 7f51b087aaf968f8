package core

import (
	"errors"
	"fmt"
	"math/bits"

	"planarflow/internal/artifact"
	"planarflow/internal/bdd"
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
	la.MinCycles(func(_ *bdd.Bag, c int64) { best = min(best, c) })
	logn := int64(bits.Len(uint(g.N())))
	d := int64(tree.Root.TreeDepth + 2)
	led.Charge("globalcut/assemble", d*logn)
	if best >= spath.Inf {
		return nil, errors.New("core: no dual cycle found in a strongly connected graph")
	}

	// Reconstruct the bisection from the value on the explicit dual (one
	// more Õ(D²)-style phase, §7's component detection).
	side, cut, err := reconstructCut(g, la.Lengths, best)
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
