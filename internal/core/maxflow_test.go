package core

import (
	"context"
	"errors"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

func TestMaxFlowTinyGrid(t *testing.T) {
	g := planar.Grid(2, 2) // 4 vertices, 4 edges, unit caps
	led := ledger.New()
	res, err := MaxFlow(prep(g), 0, 3, Options{LeafLimit: 4}, led)
	if err != nil {
		t.Fatal(err)
	}
	want := DinicValue(g, 0, 3)
	if res.Value != want {
		t.Fatalf("value=%d want %d", res.Value, want)
	}
	if err := CheckFlow(g, 0, 3, res.Flow, res.Value); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowRandomGrids(t *testing.T) {
	rng := planar.NewRand(21)
	for trial := 0; trial < 8; trial++ {
		rows, cols := 2+rng.IntN(4), 2+rng.IntN(5)
		g0 := planar.Grid(rows, cols)
		g := planar.WithRandomWeights(g0, rng, 1, 10, 1, 20)
		g = planar.WithRandomDirections(g, rng)
		s := rng.IntN(g.N())
		tt := rng.IntN(g.N())
		if s == tt {
			continue
		}
		led := ledger.New()
		res, err := MaxFlow(prep(g), s, tt, Options{LeafLimit: 12}, led)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := DinicValue(g, s, tt)
		if res.Value != want {
			t.Fatalf("trial %d (%dx%d s=%d t=%d): value=%d want %d",
				trial, rows, cols, s, tt, res.Value, want)
		}
		if err := CheckFlow(g, s, tt, res.Flow, res.Value); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if led.Total() == 0 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestMaxFlowTriangulations(t *testing.T) {
	rng := planar.NewRand(33)
	for trial := 0; trial < 5; trial++ {
		g0 := planar.StackedTriangulation(12+rng.IntN(20), rng)
		g := planar.WithRandomWeights(g0, rng, 1, 5, 1, 15)
		g = planar.WithRandomDirections(g, rng)
		s, tt := 0, g.N()-1
		res, err := MaxFlow(prep(g), s, tt, Options{LeafLimit: 16}, led())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := DinicValue(g, s, tt)
		if res.Value != want {
			t.Fatalf("trial %d: value=%d want %d", trial, res.Value, want)
		}
		if err := CheckFlow(g, s, tt, res.Flow, res.Value); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func led() *ledger.Ledger { return ledger.New() }

// tripCtx reports context.Canceled from its limit-th Err() call on and
// counts the calls, so a test can cancel "mid-search" at an exact labeling
// checkpoint and see whether anything polled the context afterwards.
type tripCtx struct {
	context.Context
	limit, calls int
}

func (c *tripCtx) Err() error {
	c.calls++
	if c.calls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestExactQueriesStopWhenCanceled: MaxFlow and MinSTCut poll the prepared
// view's context once per bag; a canceled view returns an error matching
// context.Canceled and processes no further bag (no further poll).
func TestExactQueriesStopWhenCanceled(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(8, 8), planar.NewRand(3), 1, 9, 1, 9)
	p := prep(g)
	opt := Options{LeafLimit: 12}
	tree, err := p.Tree(opt.LeafLimit, led())
	if err != nil {
		t.Fatal(err)
	}
	bags := len(tree.Bags)
	if bags < 7 {
		t.Fatalf("only %d bags: nothing to stop between", bags)
	}
	s, tt := 0, g.N()-1

	// How many polls an uncanceled query makes: one per bag reached, and the
	// λ=1 probe (feasible: every grid edge points away from s) and the
	// final, source-directed pass reach every bag.
	count := &tripCtx{Context: context.Background(), limit: 1 << 30}
	if _, err := MaxFlow(p.WithContext(count), s, tt, opt, led()); err != nil {
		t.Fatal(err)
	}
	flowPolls := count.calls
	if flowPolls < 2*bags {
		t.Fatalf("MaxFlow polled the context %d times over %d bags", flowPolls, bags)
	}

	for _, tc := range []struct {
		name  string
		limit int
		run   func(ctx context.Context) error
	}{
		{"maxflow/before", 1, func(ctx context.Context) error {
			_, err := MaxFlow(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"maxflow/mid-search", flowPolls / 2, func(ctx context.Context) error {
			_, err := MaxFlow(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"maxflow/final-labeling", flowPolls, func(ctx context.Context) error {
			_, err := MaxFlow(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"minstcut/before", 1, func(ctx context.Context) error {
			_, err := MinSTCut(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
		{"minstcut/primal-labeling", flowPolls + bags/2 + 1, func(ctx context.Context) error {
			_, err := MinSTCut(p.WithContext(ctx), s, tt, opt, led())
			return err
		}},
	} {
		ctx := &tripCtx{Context: context.Background(), limit: tc.limit}
		err := tc.run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want context.Canceled", tc.name, err)
		}
		if ctx.calls != tc.limit {
			t.Errorf("%s: context polled %d times, canceled at poll %d", tc.name, ctx.calls, tc.limit)
		}
	}

	// A really canceled context, through the public cancel func.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinSTCut(p.WithContext(cctx), s, tt, opt, led()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err=%v", err)
	}
}
