package minoragg

import (
	"reflect"
	"slices"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/pa"
	"planarflow/internal/planar"
)

// TestDeactivateMatchesMapReference: the flat-array deactivation returns
// what the map-of-maps one it replaced returned — every SimpleDual field,
// group indices in edge order included, so Stoer–Wagner reads the same
// input — and charges the same ledger entries, under a sum and a min merge,
// on grids, snakes, triangulations and sparse graphs with bridges and
// degree-1 vertices (a spanning tree's dual is one node with only loops).
func TestDeactivateMatchesMapReference(t *testing.T) {
	rng := planar.NewRand(46)
	tri := planar.StackedTriangulation(80, rng)
	graphs := map[string]*planar.Graph{
		"grid1x2":   planar.Grid(1, 2),
		"grid1x6":   planar.Grid(1, 6),
		"grid2x4":   planar.Grid(2, 4),
		"grid12x12": planar.Grid(12, 12),
		"snake12":   planar.BoustrophedonGrid(12, 12),
		"cyl4x10":   planar.Cylinder(4, 10),
		"tri100":    planar.StackedTriangulation(100, planar.NewRand(1)),
		"tri300":    planar.StackedTriangulation(300, rng),
		"sparse":    planar.RemoveRandomEdges(tri, rng, 80),
		"tree":      planar.RemoveRandomEdges(tri, rng, tri.M()),
		"sparseGrd": planar.RemoveRandomEdges(planar.Grid(8, 8), rng, 25),
	}
	ops := map[string]pa.Op{"sum": pa.Sum, "min": func(a, b int64) int64 { return min(a, b) }}
	for name, g := range graphs {
		prices := MeasurePrices(g, ledger.New())
		w := make([]int64, g.M())
		for e := range w {
			w[e] = 1 + rng.Int64N(9)
		}
		for opName, op := range ops {
			gotLed, wantLed := ledger.New(), ledger.New()
			gotH, wantH := NewHandle(prices, g, gotLed), NewHandle(prices, g, wantLed)
			got, want := gotH.Deactivate(w, op), wantH.deactivateMaps(w, op)
			if got.NumNodes != want.NumNodes || got.MaxOutDeg != want.MaxOutDeg ||
				!slices.Equal(got.Us, want.Us) || !slices.Equal(got.Vs, want.Vs) ||
				!slices.Equal(got.Ws, want.Ws) || !slices.Equal(got.RepEdge, want.RepEdge) ||
				!slices.Equal(got.GroupOf, want.GroupOf) || !slices.Equal(got.OutNeighbors, want.OutNeighbors) {
				t.Fatalf("%s/%s: got %+v, want %+v", name, opName, got, want)
			}
			if !reflect.DeepEqual(gotLed.Entries(), wantLed.Entries()) {
				t.Fatalf("%s/%s: ledger %v, want %v", name, opName, gotLed.Entries(), wantLed.Entries())
			}
		}
	}
}

// deactivateMaps is Deactivate as it was before flat arrays, kept verbatim
// as the reference: the simple support as a map per face and the
// (from, to) groups in one map.
func (s *Handle) deactivateMaps(weights []int64, op pa.Op) *SimpleDual {
	g := s.G
	du := g.Dual()
	nf := du.NumNodes()

	// Simple support adjacency (distinct neighbors, ignoring self-loops).
	nbrSet := make([]map[int]bool, nf)
	for f := 0; f < nf; f++ {
		nbrSet[f] = make(map[int]bool)
	}
	for e := 0; e < g.M(); e++ {
		d := planar.ForwardDart(e)
		a, b := du.Tail(d), du.Head(d)
		if a == b {
			continue
		}
		nbrSet[a][b] = true
		nbrSet[b][a] = true
	}

	// [Barenboim–Elkin] partition: alpha = 3 for planar duals; a white node
	// with at most 2*(2+eps')*alpha white neighbors joins the current part.
	// We use the paper's 3*alpha threshold.
	const alpha = 3
	threshold := 3 * alpha
	part := make([]int, nf) // H-index per face, -1 while white
	for f := range part {
		part[f] = -1
	}
	whiteDeg := make([]int, nf)
	for f := 0; f < nf; f++ {
		whiteDeg[f] = len(nbrSet[f])
	}
	remaining := nf
	phase := 0
	for remaining > 0 {
		var joined []int
		for f := 0; f < nf; f++ {
			if part[f] == -1 && whiteDeg[f] <= threshold {
				joined = append(joined, f)
			}
		}
		if len(joined) == 0 {
			// Cannot happen for arboricity-bounded graphs, but guard against
			// degenerate inputs by force-joining the minimum-degree node.
			best, bd := -1, 1<<30
			for f := 0; f < nf; f++ {
				if part[f] == -1 && whiteDeg[f] < bd {
					best, bd = f, whiteDeg[f]
				}
			}
			joined = []int{best}
		}
		for _, f := range joined {
			part[f] = phase
		}
		for _, f := range joined {
			for nb := range nbrSet[f] {
				if part[nb] == -1 {
					whiteDeg[nb]--
				}
			}
			remaining--
		}
		// Each phase costs O(threshold) consensus+aggregation steps
		// (counting white neighbors one at a time, §4.2.3) — no contractions.
		s.ChargeAggRounds("dual/deactivate-phase", int64(threshold))
		phase++
	}

	// Orientation: edge (u,v) points to the higher part, ties to higher ID.
	orientOut := func(u, v int) bool {
		if part[u] != part[v] {
			return part[u] < part[v]
		}
		return u < v
	}

	sd := &SimpleDual{
		NumNodes:     nf,
		GroupOf:      make([]int, g.M()),
		OutNeighbors: make([]int, nf),
	}
	type groupKey struct{ from, to int }
	groups := make(map[groupKey]int)
	outNbrs := make([]map[int]bool, nf)
	for f := range outNbrs {
		outNbrs[f] = make(map[int]bool)
	}
	for e := 0; e < g.M(); e++ {
		d := planar.ForwardDart(e)
		a, b := du.Tail(d), du.Head(d)
		if a == b {
			sd.GroupOf[e] = -1 // self-loop: deactivated outright
			continue
		}
		from, to := a, b
		if !orientOut(a, b) {
			from, to = b, a
		}
		outNbrs[from][to] = true
		k := groupKey{from, to}
		gi, ok := groups[k]
		if !ok {
			gi = len(sd.Us)
			groups[k] = gi
			sd.Us = append(sd.Us, a)
			sd.Vs = append(sd.Vs, b)
			sd.Ws = append(sd.Ws, weights[e])
			sd.RepEdge = append(sd.RepEdge, e)
			sd.GroupOf[e] = gi
			continue
		}
		sd.Ws[gi] = op(sd.Ws[gi], weights[e])
		if e < sd.RepEdge[gi] {
			sd.RepEdge[gi] = e
		}
		sd.GroupOf[e] = gi
	}
	for f := 0; f < nf; f++ {
		sd.OutNeighbors[f] = len(outNbrs[f])
		if sd.OutNeighbors[f] > sd.MaxOutDeg {
			sd.MaxOutDeg = sd.OutNeighbors[f]
		}
	}
	// Per-neighbor merges: O(alpha) aggregation steps.
	s.ChargeAggRounds("dual/deactivate-merge", int64(3*alpha))
	return sd
}
