package planarflow

import (
	"testing"
)

// oracle builds g's undirected (or, with directed set, one-way) distance
// oracle through Prepare.
func oracle(g *Graph, directed bool) (*DistanceOracle, error) {
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	if directed {
		return p.DirectedDistanceOracle()
	}
	return p.DistanceOracle()
}

func TestDistanceOracleUndirected(t *testing.T) {
	g := GridGraph(4, 5) // unit weights
	o, err := oracle(g, false)
	if err != nil {
		t.Fatal(err)
	}
	// Grid distances are Manhattan distances.
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			ru, cu := u/5, u%5
			rv, cv := v/5, v%5
			want := int64(abs(ru-rv) + abs(cu-cv))
			got, err := o.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("dist(%d,%d)=%d want %d", u, v, got, want)
			}
		}
	}
	if o.Rounds().Total <= 0 {
		t.Fatal("no construction rounds")
	}
}

func TestDistanceOracleDirected(t *testing.T) {
	// Default grid points right/down: opposite corner reachable, reverse
	// unreachable.
	g := GridGraph(3, 3)
	o, err := oracle(g, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := o.Dist(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 {
		t.Fatalf("dist(0,8)=%d want 4", d)
	}
	back, _ := o.Dist(8, 0)
	if back != Inf {
		t.Fatalf("dist(8,0)=%d want Inf", back)
	}
}

func TestDistanceOracleDual(t *testing.T) {
	g := GridGraph(3, 3)
	o, err := oracle(g, false)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent interior quads are one crossing apart.
	for f1 := 0; f1 < g.NumFaces(); f1++ {
		d, err := o.DualDist(f1, f1)
		if err != nil || d != 0 {
			t.Fatalf("self distance %d (%v)", d, err)
		}
	}
	if _, err := o.DualDist(0, g.NumFaces()); err == nil {
		t.Fatal("expected range error")
	}
}

func TestDistanceOracleLabelWords(t *testing.T) {
	g := GridGraph(6, 6)
	o, err := oracle(g, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if w := o.LabelWords(v); w <= 0 || w > 60*g.Diameter() {
			t.Fatalf("label words %d out of Õ(D) range (D=%d)", w, g.Diameter())
		}
	}
}

func TestDistanceOracleNegativeCycleReported(t *testing.T) {
	g := GridGraph(3, 3).WithAttrs(func(e int, old Edge) Edge {
		old.Weight = -1
		return old
	})
	if _, err := oracle(g, false); err == nil {
		t.Fatal("expected negative cycle error")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
