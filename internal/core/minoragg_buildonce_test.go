package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/ledger"
	"planarflow/internal/obs"
)

// minorAggConstruction is the ledger phases of building the simulator: what
// moved from every query to the one that builds the graph's prices.
var minorAggConstruction = []string{"hatg/construct", "hatg/bfs-tree"}

// minorAggOp runs one golden query on p and returns its answer in golden
// form (rounds left to the caller's ledger).
func minorAggOp(p *artifact.Prepared, want minorAggGolden, led *ledger.Ledger) (minorAggGolden, error) {
	got := minorAggGolden{Name: want.Name, S: want.S, T: want.T, Eps: want.Eps}
	switch {
	case want.Flow != nil:
		r, err := STPlanarMaxFlow(p, want.S, want.T, want.Eps, led)
		if err != nil {
			return got, err
		}
		got.Value, got.Flow = r.Value, r.Flow
	case want.S != want.T:
		r, err := STPlanarMinCut(p, want.S, want.T, want.Eps, led)
		if err != nil {
			return got, err
		}
		got.Value, got.Edges = r.Value, r.CutEdges
	default:
		r, err := Girth(p, led)
		if err != nil {
			return got, err
		}
		got.Value, got.Edges = r.Weight, r.CycleEdges
	}
	return got, nil
}

func sameAnswer(a, b minorAggGolden) bool {
	return a.Value == b.Value && reflect.DeepEqual(a.Flow, b.Flow) && reflect.DeepEqual(a.Edges, b.Edges)
}

// TestMinorAggBuildOnce holds the resident prices to "built once per graph,
// charged once, to whoever triggered it".
func TestMinorAggBuildOnce(t *testing.T) {
	t.Run("scope-split", scopeSplit)
	t.Run("first-touch-race", firstTouchRace)
	t.Run("canceled-first-touch", canceledFirstTouch)
}

// scopeSplit pins the scope split against the golden file: the first
// stflow/stcut/girth on a bundle carries the simulator's construction as
// Build and the golden's total, every later one reports Build = 0 and the
// golden's total less the construction, and the answers never move.
func scopeSplit(t *testing.T) {
	golden := readMinorAggGolden(t)
	perInstance := len(golden) / len(exactGoldenInstances())

	for i, in := range exactGoldenInstances() {
		for _, want := range golden[i*perInstance : (i+1)*perInstance] {
			construction := builtRounds(want)
			if construction == 0 {
				t.Fatalf("%s: golden holds no construction phases", want.Name)
			}
			p := prep(in.g)
			first := ledger.New()
			a1, err := minorAggOp(p, want, first)
			if err != nil {
				t.Fatalf("%s: %v", want.Name, err)
			}
			if b, _ := first.BuildSplit(); b != construction || first.Total() != want.Rounds {
				t.Errorf("%s first: Build=%d Total=%d, want Build=%d Total=%d", want.Name, b, first.Total(), construction, want.Rounds)
			}
			if !reflect.DeepEqual(first.ByPhase(), want.ByPhase) {
				t.Errorf("%s first: phases %v, want %v", want.Name, first.ByPhase(), want.ByPhase)
			}
			second := ledger.New()
			a2, err := minorAggOp(p, want, second)
			if err != nil {
				t.Fatalf("%s: %v", want.Name, err)
			}
			if b, q := second.BuildSplit(); b != 0 || q != want.Rounds-construction {
				t.Errorf("%s second: Build=%d Query=%d, want 0 and %d", want.Name, b, q, want.Rounds-construction)
			}
			if !sameAnswer(a1, want) || !sameAnswer(a2, want) {
				t.Errorf("%s: answer moved between the golden, the first and the second call", want.Name)
			}
			if bl := p.BuildLedger(); bl.Total() != construction {
				t.Errorf("%s: BuildLedger holds %d rounds, want the construction once (%d)", want.Name, bl.Total(), construction)
			}
		}
	}
}

// firstTouchRace lets eight goroutines first-touch stflow, stcut and girth on
// one cold bundle: exactly one of them builds the prices (one histogram
// observation, one caller charged, the charge equal to the slot's cost) and
// all of them answer as the golden does. The race detector is the other half
// of the judgment.
func firstTouchRace(t *testing.T) {
	golden := readMinorAggGolden(t)
	perInstance := len(golden) / len(exactGoldenInstances())
	in := exactGoldenInstances()[1]
	wants := golden[perInstance : 2*perInstance]
	ops := []minorAggGolden{wants[0], wants[1], wants[perInstance-1]} // stflow, stcut, girth

	hist := obs.Default().Histogram("substrate_build_seconds", "", obs.L("substrate", "minoragg"))
	before := hist.Snapshot().Count

	p := prep(in.g)
	const workers = 8
	builds := make([]int64, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := ops[w%len(ops)]
			led := ledger.New()
			<-start
			got, err := minorAggOp(p, want, led)
			if err == nil && !sameAnswer(got, want) {
				err = fmt.Errorf("%s: answer differs from the golden", want.Name)
			}
			if err == nil && led.Total() != want.Rounds && led.Total() != want.Rounds-builtRounds(want) {
				err = fmt.Errorf("%s: %d rounds, want %d with the build or %d without", want.Name, led.Total(), want.Rounds, want.Rounds-builtRounds(want))
			}
			builds[w], _ = led.BuildSplit()
			errs[w] = err
		}(w)
	}
	close(start)
	wg.Wait()

	var sum int64
	builders := 0
	for w := range builds {
		if errs[w] != nil {
			t.Error(errs[w])
		}
		if builds[w] > 0 {
			builders++
		}
		sum += builds[w]
	}
	if got := hist.Snapshot().Count - before; got != 1 {
		t.Errorf("%d builds observed, want 1", got)
	}
	var slotCost int64
	for _, s := range p.Stats().Substrates {
		if s.Kind == "minoragg" {
			slotCost = s.BuildRounds
		}
	}
	if builders != 1 || sum != slotCost || slotCost != builtRounds(ops[0]) {
		t.Errorf("%d callers charged %d build rounds; slot cost %d, golden construction %d", builders, sum, slotCost, builtRounds(ops[0]))
	}
}

// builtRounds is what building the simulator cost in a golden query.
func builtRounds(g minorAggGolden) (sum int64) {
	for _, ph := range minorAggConstruction {
		sum += g.ByPhase[ph]
	}
	return sum
}

// canceledFirstTouch: a query whose context is already canceled neither
// builds the prices nor charges anything, and leaves the slot free for the
// next live query. (The waiter parked behind an in-flight build is
// internal/artifact's TestMinorAggCanceledWaiter.)
func canceledFirstTouch(t *testing.T) {
	in := exactGoldenInstances()[0]
	s, tt := minorAggGoldenST(in.g)
	p := prep(in.g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	led := ledger.New()
	if _, err := STPlanarMaxFlow(p.WithContext(ctx), s, tt, 0, led); !errors.Is(err, context.Canceled) {
		t.Fatalf("stflow under a canceled context: err=%v, want context.Canceled", err)
	}
	if _, err := Girth(p.WithContext(ctx), led); !errors.Is(err, context.Canceled) {
		t.Fatalf("girth under a canceled context: err=%v, want context.Canceled", err)
	}
	if led.Total() != 0 || len(p.Stats().Substrates) != 0 {
		t.Fatalf("canceled queries charged %d rounds and published %d substrates", led.Total(), len(p.Stats().Substrates))
	}
	live := ledger.New()
	if _, err := STPlanarMinCut(p, s, tt, 0, live); err != nil {
		t.Fatal(err)
	}
	if b, _ := live.BuildSplit(); b == 0 {
		t.Fatal("the live query after the canceled ones did not build the prices")
	}
}
