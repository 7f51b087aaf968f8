package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the exact-flow golden file")

const exactGoldenPath = "testdata/exact_golden.json"

// exactGolden is everything an exact query reports: the answer and every
// round it charged, by phase.
type exactGolden struct {
	Name string `json:"name"`
	S    int    `json:"s"`
	T    int    `json:"t"`

	FlowValue   int64            `json:"flow_value"`
	Flow        []int64          `json:"flow"`
	Iterations  int              `json:"iterations"`
	FlowRounds  int64            `json:"flow_rounds"`
	FlowByPhase map[string]int64 `json:"flow_by_phase"`

	CutValue   int64            `json:"cut_value"`
	CutEdges   []int            `json:"cut_edges"`
	CutRounds  int64            `json:"cut_rounds"`
	CutByPhase map[string]int64 `json:"cut_by_phase"`
}

// goldenPair is one exact query: a graph and its source and sink.
type goldenPair struct {
	name string
	g    *planar.Graph
	s, t int
}

// exactGoldenInstances are the golden files' four graphs, each with the
// pair its exact queries run on; the minor-aggregation golden reads them
// too.
func exactGoldenInstances() []goldenPair {
	weighted := func(g *planar.Graph, seed int64, randomDirections bool) *planar.Graph {
		rng := planar.NewRand(seed)
		g = planar.WithRandomWeights(g, rng, 1, 9, 1, 10)
		if randomDirections {
			g = planar.WithRandomDirections(g, rng)
		}
		return g
	}
	tri := planar.StackedTriangulation(100, planar.NewRand(17))
	return []goldenPair{
		{"grid6x6", weighted(planar.Grid(6, 6), 5, false), 0, 35},
		{"grid12x12-directed", weighted(planar.Grid(12, 12), 4, true), 70, 58},
		{"triangulation100-directed", weighted(tri, 1, true), 18, 1},
		{"snake8x8", weighted(planar.BoustrophedonGrid(8, 8), 31, false), 3, 60},
	}
}

// exactGoldenPairs are the exact golden's queries: the four instances, then
// two pairs at λ* = 0 on the first two graphs, where the λ = 1 probe fails
// and the assignment and the residual graph are the λ = 0 state's.
func exactGoldenPairs() []goldenPair {
	in := exactGoldenInstances()
	return append(in,
		goldenPair{"grid6x6-zero", in[0].g, 30, 5},
		goldenPair{"grid12x12-directed-zero", in[1].g, 1, 143})
}

// TestExactGolden pins Value, Flow, Iterations and the full ledger of
// MaxFlow and MinSTCut on six fixed instances against a file generated
// before the labeling pass became demand-driven (the two λ* = 0 instances
// before min cut replayed the λ = 0 state's primal pass): any drift in an
// answer or in a charged round fails. Regenerate (only when the cost model changes on
// purpose) with `go test ./internal/core -run ExactGolden -update-golden`.
func TestExactGolden(t *testing.T) {
	var got []exactGolden
	for _, in := range exactGoldenPairs() {
		fled := ledger.New()
		flow, err := MaxFlow(prep(in.g), in.s, in.t, Options{}, fled)
		if err != nil {
			t.Fatalf("%s: maxflow: %v", in.name, err)
		}
		if want := DinicValue(in.g, in.s, in.t); flow.Value != want {
			t.Fatalf("%s: value=%d, Dinic says %d", in.name, flow.Value, want)
		}
		cled := ledger.New()
		cut, err := MinSTCut(prep(in.g), in.s, in.t, Options{}, cled)
		if err != nil {
			t.Fatalf("%s: minstcut: %v", in.name, err)
		}
		got = append(got, exactGolden{
			Name: in.name, S: in.s, T: in.t,
			FlowValue: flow.Value, Flow: flow.Flow, Iterations: flow.Iterations,
			FlowRounds: fled.Total(), FlowByPhase: fled.ByPhase(),
			CutValue: cut.Value, CutEdges: cut.CutEdges,
			CutRounds: cled.Total(), CutByPhase: cled.ByPhase(),
		})
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(exactGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %d instances", len(got))
		return
	}

	data, err := os.ReadFile(exactGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	var want []exactGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d instances, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s drifted from the golden file:\n got %+v\nwant %+v", want[i].Name, got[i], want[i])
		}
	}
}
