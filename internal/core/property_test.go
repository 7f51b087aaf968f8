package core

import (
	"testing"
	"testing/quick"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// smallInstance derives a deterministic random planar flow instance from
// quick-check inputs.
func smallInstance(seed int64, kind, size uint8) (*planar.Graph, int, int) {
	rng := planar.NewRand(seed)
	var g *planar.Graph
	switch kind % 3 {
	case 0:
		g = planar.Grid(2+int(size)%3, 2+int(size/3)%4)
	case 1:
		g = planar.StackedTriangulation(5+int(size)%15, rng)
	default:
		g = planar.Cylinder(1+int(size)%3, 3+int(size/4)%4)
	}
	g = planar.WithRandomWeights(g, rng, 1, 12, 1, 9)
	g = planar.WithRandomDirections(g, rng)
	s := rng.IntN(g.N())
	t := (s + 1 + rng.IntN(g.N()-1)) % g.N()
	return g, s, t
}

func TestQuickMaxFlowMatchesDinic(t *testing.T) {
	prop := func(seed int64, kind, size uint8) bool {
		g, s, tt := smallInstance(seed, kind, size)
		res, err := MaxFlow(prep(g), s, tt, Options{LeafLimit: 10}, ledger.New())
		if err != nil {
			return false
		}
		if res.Value != DinicValue(g, s, tt) {
			return false
		}
		return CheckFlow(g, s, tt, res.Flow, res.Value) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxFlowMinCutDuality(t *testing.T) {
	prop := func(seed int64, kind, size uint8) bool {
		g, s, tt := smallInstance(seed, kind, size)
		cut, err := MinSTCut(prep(g), s, tt, Options{LeafLimit: 10}, ledger.New())
		if err != nil {
			return false
		}
		// The cut must upper-bound every feasible flow and be achieved.
		return cut.Value == DinicValue(g, s, tt) && cut.Side[s] && !cut.Side[tt]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCycleCutDuality(t *testing.T) {
	// Fact 3.1 end-to-end: the girth's cycle edges, viewed in the dual,
	// split the faces into exactly two connected sides.
	prop := func(seed int64, size uint8) bool {
		rng := planar.NewRand(seed)
		g := planar.StackedTriangulation(6+int(size)%20, rng)
		g = planar.WithRandomWeights(g, rng, 1, 25, 1, 1)
		res, err := Girth(prep(g), ledger.New())
		if err != nil || res.Weight >= spath.Inf {
			return err == nil
		}
		if checkCycle(g, res.CycleEdges, res.Weight) != nil {
			return false
		}
		// Removing the cycle's dual edges disconnects G* into exactly two
		// components.
		du := g.Dual()
		onCycle := map[int]bool{}
		for _, e := range res.CycleEdges {
			onCycle[e] = true
		}
		comp := make([]int, du.NumNodes())
		for i := range comp {
			comp[i] = -1
		}
		num := 0
		for f := 0; f < du.NumNodes(); f++ {
			if comp[f] != -1 {
				continue
			}
			stack := []int{f}
			comp[f] = num
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, d := range g.Faces().Cycle(x) {
					if onCycle[planar.EdgeOf(d)] {
						continue
					}
					y := du.Head(d)
					if comp[y] == -1 {
						comp[y] = num
						stack = append(stack, y)
					}
				}
			}
			num++
		}
		return num == 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGlobalCutUpperBoundsEveryBisection(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := planar.NewRand(seed)
		r, c := 2+int(size)%3, 2+int(size/3)%3
		g := planar.BoustrophedonGrid(r, c)
		g = g.WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
			old.Weight = 1 + rng.Int64N(15)
			return old
		})
		res, err := GlobalMinCut(prep(g), Options{LeafLimit: 8}, ledger.New())
		if err != nil {
			return false
		}
		// Check against 50 random bisections.
		us := make([]int, g.M())
		vs := make([]int, g.M())
		ws := make([]int64, g.M())
		for e := 0; e < g.M(); e++ {
			ed := g.Edge(e)
			us[e], vs[e], ws[e] = ed.U, ed.V, ed.Weight
		}
		for i := 0; i < 50; i++ {
			side := make([]bool, g.N())
			any, all := false, true
			for v := range side {
				side[v] = rng.IntN(2) == 0
				if side[v] {
					any = true
				} else {
					all = false
				}
			}
			if !any || all {
				continue
			}
			if spath.CutWeightDirected(us, vs, ws, side) < res.Value {
				return false
			}
		}
		return spath.CutWeightDirected(us, vs, ws, res.Side) == res.Value
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHassinFeasibility(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := planar.NewRand(seed)
		g := planar.Grid(2+int(size)%4, 2+int(size/4)%4)
		g = planar.WithRandomWeights(g, rng, 1, 1, 10, 99)
		s, tt := 0, g.N()-1
		res, err := STPlanarMaxFlow(prep(g), s, tt, 0, ledger.New())
		if err != nil {
			return false
		}
		if res.Value != UndirectedDinicValue(g, s, tt) {
			return false
		}
		return CheckUndirectedFlow(g, s, tt, res.Flow, res.Value) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
