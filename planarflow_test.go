package planarflow

import (
	"testing"
)

func TestBuilderRoundTrip(t *testing.T) {
	// A triangle via the public builder.
	b := NewBuilder(3)
	e01 := b.AddEdge(0, 1, 1, 5)
	e12 := b.AddEdge(1, 2, 2, 5)
	e20 := b.AddEdge(2, 0, 3, 5)
	if err := b.SetRotation(0, []int{e01, e20}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetRotation(1, []int{e12, e01}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetRotation(2, []int{e20, e12}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 || g.NumFaces() != 2 {
		t.Fatalf("n=%d m=%d f=%d", g.N(), g.M(), g.NumFaces())
	}
	if gr := answer(t, g, GirthQuery()); gr.Value != 6 {
		t.Fatalf("girth=%d want 6", gr.Value)
	}
}

func TestBuilderRejectsBadRotation(t *testing.T) {
	b := NewBuilder(2)
	e := b.AddEdge(0, 1, 1, 1)
	if err := b.SetRotation(0, []int{e + 5}); err == nil {
		t.Fatal("expected unknown-edge error")
	}
	if err := b.SetRotation(1, []int{e}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("expected build error for missing rotation")
	}
}

func TestPublicMaxFlow(t *testing.T) {
	g := GridGraph(4, 4).WithRandomAttrs(1, 1, 1, 1, 9)
	res := answer(t, g, MaxFlowQuery(0, g.N()-1))
	if res.Value <= 0 {
		t.Fatalf("value=%d", res.Value)
	}
	if err := CheckFlow(g, 0, g.N()-1, res.Flow, res.Value); err != nil {
		t.Fatal(err)
	}
	if res.Rounds.Total <= 0 || len(res.Rounds.ByPhase) == 0 {
		t.Fatal("missing round report")
	}
	if cut := answer(t, g, MinSTCutQuery(0, g.N()-1)); cut.Value != res.Value {
		t.Fatalf("cut=%d flow=%d", cut.Value, res.Value)
	}
}

func TestPublicApproxFlow(t *testing.T) {
	g := GridGraph(4, 5).WithRandomAttrs(2, 1, 1, 50, 200)
	res := answer(t, g, STFlowQuery(0, g.N()-1, 0.1))
	if err := CheckUndirectedFlow(g, 0, g.N()-1, res.Flow, res.Value); err != nil {
		t.Fatal(err)
	}
	if cut := answer(t, g, STCutQuery(0, g.N()-1, 0)); cut.Value < res.Value {
		t.Fatalf("exact cut %d below approximate flow %d", cut.Value, res.Value)
	}
}

func TestPublicGirthAndGlobalCut(t *testing.T) {
	g := GridGraph(5, 5)
	if gr := answer(t, g, GirthQuery()); gr.Value != 4 {
		t.Fatalf("girth=%d want 4", gr.Value)
	}
	if gc := answer(t, g, GlobalMinCutQuery()); gc.Value != 0 {
		t.Fatalf("acyclic orientation must have zero cut, got %d", gc.Value)
	}
}

func TestPublicDualSSSP(t *testing.T) {
	g := GridGraph(4, 4)
	res := answer(t, g, DualSSSPQuery(0))
	if res.NegCycle {
		t.Fatal("unexpected negative cycle")
	}
	if res.Dist[0] != 0 {
		t.Fatal("source distance not zero")
	}
	for f := 1; f < g.NumFaces(); f++ {
		if res.Dist[f] <= 0 || res.Dist[f] >= Inf {
			t.Fatalf("dist[%d]=%d", f, res.Dist[f])
		}
	}
}

func TestSharedFace(t *testing.T) {
	g := GridGraph(5, 5)
	if !g.SharedFace(0, 24) {
		t.Fatal("corners share the outer face")
	}
	if g.SharedFace(12, 0) {
		t.Fatal("center and corner share no face")
	}
}
