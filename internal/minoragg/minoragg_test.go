package minoragg

import (
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/pa"
	"planarflow/internal/planar"
)

// newHandle prices g and binds the prices to a fresh ledger.
func newHandle(g *planar.Graph) Handle {
	led := ledger.New()
	return NewHandle(MeasurePrices(g, led), g, led)
}

func TestDeactivateGrid(t *testing.T) {
	g := planar.Grid(4, 4)
	led := ledger.New()
	s := NewHandle(MeasurePrices(g, led), g, led)
	w := make([]int64, g.M())
	for e := range w {
		w[e] = int64(e + 1)
	}
	sd := s.Deactivate(w, pa.Sum)
	if sd.NumNodes != g.Faces().NumFaces() {
		t.Fatalf("nodes=%d want %d", sd.NumNodes, g.Faces().NumFaces())
	}
	// Grid interior quads share at most one edge with each neighbor, but
	// boundary quads share several edges with the outer face; groups must
	// merge those.
	du := g.Dual()
	type fp struct{ a, b int }
	wantGroups := map[fp]int64{}
	for e := 0; e < g.M(); e++ {
		d := planar.ForwardDart(e)
		a, b := du.Tail(d), du.Head(d)
		if a > b {
			a, b = b, a
		}
		wantGroups[fp{a, b}] += w[e]
	}
	if len(sd.Us) != len(wantGroups) {
		t.Fatalf("merged edges=%d want %d", len(sd.Us), len(wantGroups))
	}
	for i := range sd.Us {
		a, b := sd.Us[i], sd.Vs[i]
		if a > b {
			a, b = b, a
		}
		if wantGroups[fp{a, b}] != sd.Ws[i] {
			t.Fatalf("group (%d,%d): weight %d want %d", a, b, sd.Ws[i], wantGroups[fp{a, b}])
		}
	}
	if led.Total() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestDeactivateLowOutDegree(t *testing.T) {
	// Lemma 4.15: the orientation must give O(alpha) = O(1) out-neighbors.
	rng := planar.NewRand(2)
	for _, g := range []*planar.Graph{
		planar.Grid(8, 8),
		planar.Cylinder(4, 10),
		planar.StackedTriangulation(150, rng),
		planar.RemoveRandomEdges(planar.StackedTriangulation(120, rng), rng, 60),
	} {
		s := newHandle(g)
		w := make([]int64, g.M())
		for e := range w {
			w[e] = 1
		}
		sd := s.Deactivate(w, pa.Sum)
		if sd.MaxOutDeg > 9 { // 3*alpha with alpha=3
			t.Fatalf("max out-neighbors %d exceeds 3*alpha", sd.MaxOutDeg)
		}
	}
}

func TestDeactivateSelfLoops(t *testing.T) {
	// A path graph: every edge is a bridge, so every dual edge is a
	// self-loop and must be deactivated.
	g := planar.Grid(1, 5)
	s := newHandle(g)
	w := []int64{1, 1, 1, 1}
	sd := s.Deactivate(w, pa.Sum)
	if len(sd.Us) != 0 {
		t.Fatalf("expected no active edges, got %d", len(sd.Us))
	}
	for e, gi := range sd.GroupOf {
		if gi != -1 {
			t.Fatalf("bridge edge %d not marked self-loop", e)
		}
	}
}

func TestDeactivateMinOp(t *testing.T) {
	// With Min, the merged weight must be the lightest parallel edge.
	g := planar.Grid(2, 4)
	s := newHandle(g)
	rng := planar.NewRand(9)
	w := make([]int64, g.M())
	for e := range w {
		w[e] = 1 + rng.Int64N(50)
	}
	sd := s.Deactivate(w, func(a, b int64) int64 { return min(a, b) })
	du := g.Dual()
	for i := range sd.Us {
		// Check min over all primal edges in this group.
		want := int64(1 << 62)
		for e := 0; e < g.M(); e++ {
			if sd.GroupOf[e] == i && w[e] < want {
				want = w[e]
			}
		}
		if sd.Ws[i] != want {
			t.Fatalf("group %d: %d want %d", i, sd.Ws[i], want)
		}
		// Representative edge must connect the same face pair.
		d := planar.ForwardDart(sd.RepEdge[i])
		a, b := du.Tail(d), du.Head(d)
		if !(a == sd.Us[i] && b == sd.Vs[i]) && !(a == sd.Vs[i] && b == sd.Us[i]) {
			t.Fatalf("group %d: representative edge spans wrong faces", i)
		}
	}
}

func TestMarkDualCutEdges(t *testing.T) {
	// 2x2 grid: one interior face + outer face. Cutting {interior} from
	// {outer} must mark exactly the 4 boundary edges (the primal 4-cycle).
	g := planar.Grid(2, 2)
	s := newHandle(g)
	fd := g.Faces()
	outer := fd.LargestFace()
	side := make([]bool, fd.NumFaces())
	for f := range side {
		side[f] = f != outer
	}
	edges := s.MarkDualCutEdges(side)
	if len(edges) != 4 {
		t.Fatalf("marked %d edges, want 4", len(edges))
	}
}

func TestChargeRoundsScalesWithTau(t *testing.T) {
	g := planar.Grid(4, 4)
	led := ledger.New()
	s := NewHandle(MeasurePrices(g, led), g, led)
	before := led.Total()
	s.ChargeRounds("x", 1)
	one := led.Total() - before
	s.ChargeRounds("x", 10)
	ten := led.Total() - before - one
	if ten != 10*one {
		t.Fatalf("charging not linear: 1->%d, 10->%d", one, ten)
	}
	if one < s.PAUnit() {
		t.Fatalf("one model round (%d) cheaper than one PA (%d)", one, s.PAUnit())
	}
}
