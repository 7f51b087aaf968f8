package decode

import (
	"reflect"
	"sync"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// warmLabels returns a prepared graph whose undirected dual labeling is
// already built, so queries against it charge Query-scope entries only.
func warmLabels(t *testing.T) (*artifact.Prepared, *label.Labeling) {
	t.Helper()
	g := planar.WithRandomWeights(planar.StackedTriangulation(40, planar.NewRand(3)), planar.NewRand(13), 1, 9, 1, 12)
	p := artifact.New(g)
	la, err := p.DualLabels(artifact.Undirected, 0, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if la.NegCycle {
		t.Fatal("positive weights reported a negative cycle")
	}
	return p, la
}

// TestDualSSSPRowsMatchLabelingSSSP: a row, on its decoding miss and on every
// later hit, is Labeling.SSSP — distances, tree darts and ledger entries.
func TestDualSSSPRowsMatchLabelingSSSP(t *testing.T) {
	p, la := warmLabels(t)
	e := New()
	nf := p.Graph().Faces().NumFaces()
	for _, source := range []int{0, nf / 2, nf - 1} {
		wantLed := ledger.New()
		want := la.SSSP(source, wantLed)
		for _, touch := range []string{"miss", "hit"} {
			gotLed := ledger.New()
			got, err := e.DualSSSP(p, source, 0, gotLed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("source %d (%s): row differs from Labeling.SSSP", source, touch)
			}
			if !reflect.DeepEqual(gotLed.Entries(), wantLed.Entries()) {
				t.Fatalf("source %d (%s): charged %v, Labeling.SSSP charges %v", source, touch, gotLed.Entries(), wantLed.Entries())
			}
		}
	}
	if len(e.rows) != 3 {
		t.Fatalf("%d rows cached for 3 sources", len(e.rows))
	}
}

// TestRowFirstPublishWins: callers racing on a cold row may each decode, but
// all of them leave with the one row that was published first.
func TestRowFirstPublishWins(t *testing.T) {
	_, la := warmLabels(t)
	e := New()
	const callers = 8
	rows := make([]*ssspRow, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rows[i] = e.row(la, 1)
		}()
	}
	close(start)
	wg.Wait()
	published := e.rows[rowKey{la, 1}]
	if published == nil || len(e.rows) != 1 {
		t.Fatalf("%d rows cached after one source's first touch", len(e.rows))
	}
	for i, r := range rows {
		if r != published {
			t.Fatalf("caller %d holds a row that was not the one published", i)
		}
	}
}

// TestDualSSSPDoesNotAliasTheCache: a caller scribbling over its answer
// changes neither the cached row nor the next caller's answer.
func TestDualSSSPDoesNotAliasTheCache(t *testing.T) {
	p, la := warmLabels(t)
	e := New()
	want := la.SSSP(2, ledger.New())
	for round := 0; round < 2; round++ { // the miss's answer, then a hit's
		got, err := e.DualSSSP(p, 2, 0, ledger.New())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: answer differs after an earlier caller mutated its copy", round)
		}
		for f := range got.Dist {
			got.Dist[f] = -1
			got.TreeDart[f] = planar.NoDart - 1
		}
	}
	if row := e.rows[rowKey{la, 2}]; !reflect.DeepEqual(row.res, want) {
		t.Fatal("cached row changed under a caller's mutation")
	}
}
