package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

const minorAggGoldenPath = "testdata/minoragg_golden.json"

// minorAggGolden is everything one minor-aggregation query reports: the
// answer, the total rounds and the rounds by phase, blind to scope.
type minorAggGolden struct {
	Name string  `json:"name"` // instance/op[/eps]
	S    int     `json:"s"`
	T    int     `json:"t"`
	Eps  float64 `json:"eps"`

	Value   int64            `json:"value"`
	Flow    []int64          `json:"flow,omitempty"`  // stflow
	Edges   []int            `json:"edges,omitempty"` // stcut: cut edges; girth: cycle edges
	Rounds  int64            `json:"rounds"`
	ByPhase map[string]int64 `json:"by_phase"`
}

// minorAggGoldenST picks the (s, t) pair of a golden instance: the
// endpoints of a fixed edge, which always share a face.
func minorAggGoldenST(g *planar.Graph) (s, t int) {
	ed := g.Edge(g.M() / 3)
	return ed.U, ed.V
}

// minorAggGoldenRun answers every golden query, each from a fresh bundle.
func minorAggGoldenRun(t *testing.T) []minorAggGolden {
	var got []minorAggGolden
	for _, in := range exactGoldenInstances() {
		s, tt := minorAggGoldenST(in.g)
		for _, eps := range []float64{0, 0.1} {
			led := ledger.New()
			flow, err := STPlanarMaxFlow(prep(in.g), s, tt, eps, led)
			if err != nil {
				t.Fatalf("%s: stflow eps=%v: %v", in.name, eps, err)
			}
			if err := CheckUndirectedFlow(in.g, s, tt, flow.Flow, flow.Value); err != nil {
				t.Fatalf("%s: stflow eps=%v: %v", in.name, eps, err)
			}
			got = append(got, minorAggGolden{
				Name: fmt.Sprintf("%s/stflow/%v", in.name, eps), S: s, T: tt, Eps: eps,
				Value: flow.Value, Flow: flow.Flow, Rounds: led.Total(), ByPhase: led.ByPhase(),
			})
			led = ledger.New()
			cut, err := STPlanarMinCut(prep(in.g), s, tt, eps, led)
			if err != nil {
				t.Fatalf("%s: stcut eps=%v: %v", in.name, eps, err)
			}
			got = append(got, minorAggGolden{
				Name: fmt.Sprintf("%s/stcut/%v", in.name, eps), S: s, T: tt, Eps: eps,
				Value: cut.Value, Edges: cut.CutEdges, Rounds: led.Total(), ByPhase: led.ByPhase(),
			})
		}
		led := ledger.New()
		girth, err := Girth(prep(in.g), led)
		if err != nil {
			t.Fatalf("%s: girth: %v", in.name, err)
		}
		got = append(got, minorAggGolden{
			Name: in.name + "/girth", Value: girth.Weight, Edges: girth.CycleEdges,
			Rounds: led.Total(), ByPhase: led.ByPhase(),
		})
	}
	return got
}

func readMinorAggGolden(t *testing.T) []minorAggGolden {
	data, err := os.ReadFile(minorAggGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	var want []minorAggGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return want
}

// TestMinorAggGolden pins the answer and the full ledger of the three
// families priced by the minor-aggregation simulator (stflow, stcut, girth)
// on the exact golden's four graphs, against a file generated while the
// simulator was still built inside every query: making its prices a
// resident substrate may move entries between scopes, never between
// phases. Regenerate (only when the cost model changes on purpose) with
// `go test ./internal/core -run MinorAggGolden -update-golden`.
func TestMinorAggGolden(t *testing.T) {
	got := minorAggGoldenRun(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(minorAggGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %d queries", len(got))
		return
	}
	want := readMinorAggGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d queries, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s drifted from the golden file:\n got %+v\nwant %+v", want[i].Name, got[i], want[i])
		}
	}
}
