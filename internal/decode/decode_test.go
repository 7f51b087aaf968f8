package decode

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/core"
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
	if len(e.memo) != 3 {
		t.Fatalf("%d records memoized for 3 sources", len(e.memo))
	}
}

// TestRowFirstPublishWins: callers racing on a cold key each run core, but
// the record published first is the one kept, and every caller — the
// racers and a later hit — leaves with its answer.
func TestRowFirstPublishWins(t *testing.T) {
	e := New()
	k := key{fam: dualSSSP, arg: 1}
	const callers = 8
	got := make([]int, callers)
	var inside sync.WaitGroup // every caller has missed before any publishes
	inside.Add(callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = replay(e, k, ledger.New(), func(*ledger.Ledger) (int, error) {
				inside.Done()
				inside.Wait()
				return i, nil
			}, func(v int) int { return v })
		}()
	}
	wg.Wait()
	if len(e.memo) != 1 {
		t.Fatalf("%d records after one key's first touch", len(e.memo))
	}
	published := e.memo[k].ans.(int)
	for i, v := range got {
		if v != published {
			t.Fatalf("caller %d left with %d, the published record holds %d", i, v, published)
		}
	}
	again, _ := replay(e, k, ledger.New(), func(*ledger.Ledger) (int, error) {
		t.Fatal("a hit ran core")
		return 0, nil
	}, func(v int) int { return v })
	if again != published {
		t.Fatalf("hit returned %d, published %d", again, published)
	}
}

// TestDualSSSPDoesNotAliasTheCache: a caller scribbling over its answer
// changes neither the memoized record nor the next caller's answer.
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
	if rec := e.memo[key{dualSSSP, p.ResolveLeafLimit(0), 2}]; !reflect.DeepEqual(rec.ans, want) {
		t.Fatal("memoized record changed under a caller's mutation")
	}
}

// families runs each of the engine's four families against p, returning
// the answer and the ledger it charged.
var families = map[string]func(e *Engine, p *artifact.Prepared, arg int) (any, *ledger.Ledger, error){
	"dualsssp": func(e *Engine, p *artifact.Prepared, arg int) (any, *ledger.Ledger, error) {
		led := ledger.New()
		r, err := e.DualSSSP(p, arg, 0, led)
		return r, led, err
	},
	"girth": func(e *Engine, p *artifact.Prepared, _ int) (any, *ledger.Ledger, error) {
		led := ledger.New()
		r, err := e.Girth(p, led)
		return r, led, err
	},
	"dirgirth": func(e *Engine, p *artifact.Prepared, _ int) (any, *ledger.Ledger, error) {
		led := ledger.New()
		r, err := e.DirectedGirth(p, core.Options{}, led)
		return r, led, err
	},
	"globalmincut": func(e *Engine, p *artifact.Prepared, _ int) (any, *ledger.Ledger, error) {
		led := ledger.New()
		r, err := e.GlobalMinCut(p, core.Options{}, led)
		return r, led, err
	},
}

// TestErrorsAreNeverMemoized: each family's failing input leaves the memo
// empty, and a second call reports the identical error and ledger.
func TestErrorsAreNeverMemoized(t *testing.T) {
	grid := planar.Grid(4, 4)
	withWeight := func(w int64) *artifact.Prepared {
		return artifact.New(grid.WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
			if e == 3 {
				old.Weight = w
			}
			return old
		}))
	}
	cases := []struct {
		family string
		p      *artifact.Prepared
		arg    int
		want   error
	}{
		{"girth", withWeight(0), 0, core.ErrNonPositiveWeight},
		{"dirgirth", withWeight(-2), 0, core.ErrNegativeWeight},
		{"globalmincut", withWeight(-2), 0, core.ErrNegativeWeight},
		{"dualsssp", artifact.New(grid), grid.Faces().NumFaces(), core.ErrFaceRange},
	}
	for _, c := range cases {
		t.Run(c.family, func(t *testing.T) {
			e := New()
			_, led1, err1 := families[c.family](e, c.p, c.arg)
			if !errors.Is(err1, c.want) {
				t.Fatalf("first call: err %v, want %v", err1, c.want)
			}
			_, led2, err2 := families[c.family](e, c.p, c.arg)
			if err2 == nil || err2.Error() != err1.Error() {
				t.Fatalf("second call: err %v, first %v", err2, err1)
			}
			if !reflect.DeepEqual(led1.Entries(), led2.Entries()) {
				t.Fatalf("ledgers differ: %v then %v", led1.Entries(), led2.Entries())
			}
			if len(e.memo) != 0 {
				t.Fatalf("an error left %d records", len(e.memo))
			}
		})
	}
}

// TestFirstTouchRaceOneRecordPerKey: eight goroutines racing the first
// touch of each family on a cold bundle leave one record per key, and
// every caller gets the same answer.
func TestFirstTouchRaceOneRecordPerKey(t *testing.T) {
	g := planar.WithRandomWeights(planar.BoustrophedonGrid(4, 5), planar.NewRand(7), 1, 20, 1, 1)
	for name, run := range families {
		t.Run(name, func(t *testing.T) {
			p, e := artifact.New(g), New()
			const callers = 8
			answers := make([]any, callers)
			errs := make([]error, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range answers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					answers[i], _, errs[i] = run(e, p, 1)
				}()
			}
			close(start)
			wg.Wait()
			for i := range answers {
				if errs[i] != nil {
					t.Fatalf("caller %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(answers[i], answers[0]) {
					t.Fatalf("caller %d answered %v, caller 0 %v", i, answers[i], answers[0])
				}
			}
			if len(e.memo) != 1 {
				t.Fatalf("%d records after one key's first touch", len(e.memo))
			}
		})
	}
}

// TestNegCycleAnswerIsRecorded: a negative dual cycle is an answer, not an
// error, so it is recorded once and replayed like any other.
func TestNegCycleAnswerIsRecorded(t *testing.T) {
	p := artifact.New(planar.WithRandomWeights(planar.Grid(3, 3), planar.NewRand(1), -5, -1, 1, 1))
	e := New()
	want := &label.SSSPResult{Source: 1, NegCycle: true}
	for _, touch := range []string{"miss", "hit"} {
		got, err := e.DualSSSP(p, 1, 0, ledger.New())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v, want %+v", touch, got, want)
		}
	}
	if len(e.memo) != 1 {
		t.Fatalf("%d records after a negative-cycle source was asked twice", len(e.memo))
	}
}
