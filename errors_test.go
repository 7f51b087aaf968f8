package planarflow

import (
	"errors"
	"testing"
)

// Every query is validated with typed sentinel errors, dispatchable via
// errors.Is, whichever family it asks.

func TestSentinelVertexRange(t *testing.T) {
	g := GridGraph(3, 3)
	for i, q := range []Query{
		MaxFlowQuery(-1, 2),
		MaxFlowQuery(0, 99),
		MinSTCutQuery(42, 0),
		STFlowQuery(-3, 1, 0.1),
		STCutQuery(0, 100, 0),
	} {
		if _, err := doFresh(t, g, q); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("case %d: got %v, want ErrVertexRange", i, err)
		}
	}
	o, err := oracle(g, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Dist(0, 99); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("oracle dist: got %v, want ErrVertexRange", err)
	}
}

func TestSentinelSameVertex(t *testing.T) {
	g := GridGraph(3, 3)
	if _, err := doFresh(t, g, MaxFlowQuery(4, 4)); !errors.Is(err, ErrSameVertex) {
		t.Fatalf("got %v, want ErrSameVertex", err)
	}
	if _, err := doFresh(t, g, MinSTCutQuery(0, 0)); !errors.Is(err, ErrSameVertex) {
		t.Fatalf("got %v, want ErrSameVertex", err)
	}
}

func TestSentinelFaceRange(t *testing.T) {
	g := GridGraph(3, 3)
	if _, err := doFresh(t, g, DualSSSPQuery(-1)); !errors.Is(err, ErrFaceRange) {
		t.Fatalf("got %v, want ErrFaceRange", err)
	}
	if _, err := doFresh(t, g, DualSSSPQuery(g.NumFaces())); !errors.Is(err, ErrFaceRange) {
		t.Fatalf("got %v, want ErrFaceRange", err)
	}
	o, err := oracle(g, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.DualDist(0, g.NumFaces()); !errors.Is(err, ErrFaceRange) {
		t.Fatalf("oracle dual dist: got %v, want ErrFaceRange", err)
	}
}

func TestSentinelSameFaceRequired(t *testing.T) {
	g := GridGraph(5, 5)
	// Center vertex 12 and corner 0 share no face.
	if _, err := doFresh(t, g, STFlowQuery(12, 0, 0.1)); !errors.Is(err, ErrSameFaceRequired) {
		t.Fatalf("got %v, want ErrSameFaceRequired", err)
	}
	if _, err := doFresh(t, g, STCutQuery(12, 0, 0)); !errors.Is(err, ErrSameFaceRequired) {
		t.Fatalf("got %v, want ErrSameFaceRequired", err)
	}
}

func TestSentinelEpsilonRange(t *testing.T) {
	g := GridGraph(3, 3)
	for _, eps := range []float64{-0.1, 1.0, 2.5} {
		if _, err := doFresh(t, g, STFlowQuery(0, 8, eps)); !errors.Is(err, ErrEpsilonRange) {
			t.Fatalf("eps=%v: got %v, want ErrEpsilonRange", eps, err)
		}
	}
}

func TestSentinelNegativeCycle(t *testing.T) {
	g := GridGraph(3, 3).WithAttrs(func(e int, old Edge) Edge {
		old.Weight = -1
		return old
	})
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DistanceOracle(); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("oracle: got %v, want ErrNegativeCycle", err)
	}
	if _, err := p.Do(nil, DistQuery(0, 1)); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("prepared dist: got %v, want ErrNegativeCycle", err)
	}
}

func TestSentinelWeightSigns(t *testing.T) {
	neg := GridGraph(3, 3).WithAttrs(func(e int, old Edge) Edge {
		old.Weight = -2
		return old
	})
	if _, err := doFresh(t, neg, GlobalMinCutQuery()); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("global cut: got %v, want ErrNegativeWeight", err)
	}
	if _, err := doFresh(t, neg, DirectedGirthQuery()); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("directed girth: got %v, want ErrNegativeWeight", err)
	}
	zero := GridGraph(3, 3).WithAttrs(func(e int, old Edge) Edge {
		old.Weight = 0
		return old
	})
	if _, err := doFresh(t, zero, GirthQuery()); !errors.Is(err, ErrNonPositiveWeight) {
		t.Fatalf("girth: got %v, want ErrNonPositiveWeight", err)
	}
}

func TestSentinelNilGraph(t *testing.T) {
	if _, err := Prepare(nil); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("got %v, want ErrNilGraph", err)
	}
	if _, err := Prepare(&Graph{}); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("empty Graph: got %v, want ErrNilGraph", err)
	}
}
