package planarflow

import (
	"context"
	"encoding/json"
	"testing"
)

// decodeTestGraphs is the graph zoo the fast-vs-simulated differential
// runs over: a capacitated grid, a random Delaunay-style triangulation and
// a boustrophedon grid (strongly connected, so the directed families have
// nontrivial answers).
func decodeTestGraphs() map[string]*Graph {
	return map[string]*Graph{
		"grid":          servingGraph(),
		"triangulation": TriangulationGraph(40, 3).WithRandomAttrs(13, 1, 9, 1, 12),
		"boustro":       BoustrophedonGridGraph(5, 5).WithRandomAttrs(7, 1, 20, 1, 1),
	}
}

// labelBackedQueries are the queries of the families the decode engine
// answers, including repeated dualsssp sources so the row cache is hit.
func labelBackedQueries(g *Graph) []Query {
	f := g.NumFaces()
	return []Query{
		DualSSSPQuery(0),
		DualSSSPQuery(f / 2),
		DualSSSPQuery(f - 1),
		DualSSSPQuery(0), // repeat: served from the row cache
		GirthQuery(),
		GirthQuery(), // repeat: served from the memo
		DirectedGirthQuery(),
		DirectedGirthQuery(),
		GlobalMinCutQuery(),
		GlobalMinCutQuery(),
	}
}

// TestFastPathEquivalence is the golden-JSON differential between the
// decode engine (the default route) and the simulated CONGEST route: for
// every label-backed family on every test graph, the two answers must be
// bit-identical — payload, Build/Query rounds split and per-phase
// breakdown. Both sides run the same query sequence on fresh bundles, so
// build attribution (which query carries Build > 0) must agree too.
func TestFastPathEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, g := range decodeTestGraphs() {
		t.Run(name, func(t *testing.T) {
			pFast, err := Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			pSim, err := Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range labelBackedQueries(g) {
				fast, errF := pFast.Do(ctx, q)
				sim, errS := pSim.Do(ctx, q.WithSimulated())
				if (errF == nil) != (errS == nil) {
					t.Fatalf("query %d (%s): fast err=%v, simulated err=%v", i, q.Kind, errF, errS)
				}
				if errF != nil {
					if errF.Error() != errS.Error() {
						t.Fatalf("query %d (%s): fast err %q, simulated err %q", i, q.Kind, errF, errS)
					}
					continue
				}
				jf, err := json.Marshal(fast)
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.Marshal(sim)
				if err != nil {
					t.Fatal(err)
				}
				if string(jf) != string(js) {
					t.Fatalf("query %d (%s): fast path diverges from simulated route\nfast: %s\nsim:  %s", i, q.Kind, jf, js)
				}
			}
		})
	}
}

// TestFastPathNoAliasing asserts the engine's caches never leak through an
// Answer: a caller mutating an answer's slices must not corrupt later
// answers for the same query.
func TestFastPathNoAliasing(t *testing.T) {
	g := servingGraph()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	a1, err := p.Do(ctx, DualSSSPQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	want := a1.Dist[0]
	a1.Dist[0] = want + 999
	a2, err := p.Do(ctx, DualSSSPQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2.Dist[0] != want {
		t.Fatalf("dualsssp answer aliased the row cache: got %d, want %d", a2.Dist[0], want)
	}

	g1, err := p.Do(ctx, GirthQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Edges) == 0 {
		t.Fatal("girth on the serving grid returned no cycle edges")
	}
	wantEdge := g1.Edges[0]
	g1.Edges[0] = wantEdge + 999
	g2, err := p.Do(ctx, GirthQuery())
	if err != nil {
		t.Fatal(err)
	}
	if g2.Edges[0] != wantEdge {
		t.Fatalf("girth answer aliased the memo: got %d, want %d", g2.Edges[0], wantEdge)
	}

	// globalmincut on a strongly connected graph, so the cut has edges,
	// mutated on the miss's answer and on a hit's. dualsssp's TreeDart is
	// not on Answer; internal/decode's TestDualSSSPDoesNotAliasTheCache
	// holds it.
	pb, err := Prepare(BoustrophedonGridGraph(5, 5).WithRandomAttrs(7, 1, 20, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var wantSide bool
	var wantCut int
	for round := 0; round < 3; round++ {
		c, err := pb.Do(ctx, GlobalMinCutQuery())
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Side) == 0 || len(c.Edges) == 0 {
			t.Fatalf("globalmincut returned side %v, edges %v", c.Side, c.Edges)
		}
		if round == 0 {
			wantSide, wantCut = c.Side[0], c.Edges[0]
		} else if c.Side[0] != wantSide || c.Edges[0] != wantCut {
			t.Fatalf("round %d: globalmincut answer aliased the memo: side %v edge %d, want %v %d", round, c.Side[0], c.Edges[0], wantSide, wantCut)
		}
		c.Side[0], c.Edges[0] = !wantSide, wantCut+999
	}
}

// TestAnswerRoundsPopulated is the regression test for the dropped-rounds
// bug: every QueryKind's Answer must report the shared Build/Query rounds
// contract through Do — the first query on a fresh bundle carries nonzero
// Total (per-query work, a triggered build, or both), the split sums to
// the total, the per-phase breakdown is present, and NoPhases drops
// exactly the breakdown while keeping the totals.
func TestAnswerRoundsPopulated(t *testing.T) {
	g := servingGraph()
	n, f := g.N(), g.NumFaces()
	queries := map[QueryKind]Query{
		QDist:          DistQuery(0, n-1),
		QDirectedDist:  DirectedDistQuery(0, n-1),
		QDualDist:      DualDistQuery(0, f-1),
		QDualSSSP:      DualSSSPQuery(0),
		QMaxFlow:       MaxFlowQuery(0, n-1),
		QMinSTCut:      MinSTCutQuery(0, n-1),
		QSTFlow:        STFlowQuery(0, n-1, 0.1),
		QSTCut:         STCutQuery(0, n-1, 0),
		QGirth:         GirthQuery(),
		QDirectedGirth: DirectedGirthQuery(),
		QGlobalMinCut:  GlobalMinCutQuery(),
	}
	ctx := context.Background()
	for _, kind := range QueryKinds {
		q, ok := queries[kind]
		if !ok {
			t.Fatalf("no query for kind %q; update the table", kind)
		}
		t.Run(string(kind), func(t *testing.T) {
			p, err := Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			a, err := p.Do(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if a.Rounds.Total <= 0 {
				t.Fatalf("first %s query Total=%d, want > 0", kind, a.Rounds.Total)
			}
			if a.Rounds.Build+a.Rounds.Query != a.Rounds.Total {
				t.Fatalf("%s: Build=%d + Query=%d != Total=%d", kind, a.Rounds.Build, a.Rounds.Query, a.Rounds.Total)
			}
			if a.Rounds.Measured+a.Rounds.Charged != a.Rounds.Total {
				t.Fatalf("%s: Measured=%d + Charged=%d != Total=%d", kind, a.Rounds.Measured, a.Rounds.Charged, a.Rounds.Total)
			}
			if a.Rounds.ByPhase == nil {
				t.Fatalf("%s: ByPhase missing without NoPhases", kind)
			}
			var phases int64
			for _, r := range a.Rounds.ByPhase {
				phases += r
			}
			if phases != a.Rounds.Total {
				t.Fatalf("%s: ByPhase sums to %d, Total=%d", kind, phases, a.Rounds.Total)
			}
			// NoPhases keeps the totals and drops only the breakdown.
			bare, err := p.Do(ctx, q.WithoutPhases())
			if err != nil {
				t.Fatal(err)
			}
			if bare.Rounds.ByPhase != nil {
				t.Fatalf("%s: NoPhases answer still carries ByPhase", kind)
			}
			if bare.Rounds.Query != a.Rounds.Query {
				t.Fatalf("%s: warm NoPhases Query=%d, first Query=%d", kind, bare.Rounds.Query, a.Rounds.Query)
			}
			if bare.Rounds.Build != 0 {
				t.Fatalf("%s: warm query Build=%d, want 0", kind, bare.Rounds.Build)
			}
		})
	}
}
