package planarflow

import (
	"context"
	"errors"
	"testing"
)

func TestPreparedGraphStats(t *testing.T) {
	g := GridGraph(6, 6).WithRandomAttrs(7, 1, 9, 1, 16)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Bytes != 0 || len(st.Substrates) != 0 {
		t.Fatalf("fresh PreparedGraph has nonzero stats: %+v", st)
	}
	if _, err := p.Do(nil, DistQuery(0, g.N()-1)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if len(st.Substrates) != 2 { // bdd + undirected primal labeling
		t.Fatalf("after one Dist: %d substrates, want 2: %+v", len(st.Substrates), st.Substrates)
	}
	if st.Bytes <= 0 {
		t.Fatalf("footprint %d, want > 0", st.Bytes)
	}
	if st.BuildRounds != p.BuildRounds().Total {
		t.Fatalf("stats build rounds %d != BuildRounds() %d", st.BuildRounds, p.BuildRounds().Total)
	}
	// A second substrate family grows the footprint.
	if _, err := p.Do(nil, DualDistQuery(0, 1)); err != nil {
		t.Fatal(err)
	}
	st2 := p.Stats()
	if len(st2.Substrates) != 3 || st2.Bytes <= st.Bytes {
		t.Fatalf("after DualDist: %d substrates / %d bytes (was %d)", len(st2.Substrates), st2.Bytes, st.Bytes)
	}
}

func TestPrepareContextCancellation(t *testing.T) {
	g := GridGraph(8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	p := base.WithContext(ctx)
	if _, err := p.Do(nil, DistQuery(0, 5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Dist under canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := p.Do(nil, MaxFlowQuery(0, g.N()-1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("MaxFlow under canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := p.Do(nil, DualSSSPQuery(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("DualSSSP under canceled ctx: %v, want context.Canceled", err)
	}
	// Nothing was built, and the same PreparedGraph works once rebound to a
	// live context: views share the substrate cache.
	if st := p.Stats(); len(st.Substrates) != 0 {
		t.Fatalf("canceled queries published %d substrates", len(st.Substrates))
	}
	live := p.WithContext(context.Background())
	d1, err := live.Do(nil, DistQuery(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The warm substrate serves the canceled view too (cache hits need no
	// build checkpoint).
	d2, err := p.Do(nil, DistQuery(0, 5))
	if err != nil {
		t.Fatalf("canceled view should hit the warm cache: %v", err)
	}
	if d1.Value != d2.Value {
		t.Fatalf("distances differ across views: %d vs %d", d1.Value, d2.Value)
	}
	// Exact max-flow and min-cut label per query, so a warm tree does not
	// let the canceled view run them.
	if _, err := live.Do(nil, MaxFlowQuery(0, g.N()-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(nil, MaxFlowQuery(0, g.N()-1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("MaxFlow on a warm tree under canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := p.Do(nil, MinSTCutQuery(0, g.N()-1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinSTCut on a warm tree under canceled ctx: %v, want context.Canceled", err)
	}
}

func TestWithContextSharesSubstrates(t *testing.T) {
	g := GridGraph(6, 6)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	view := p.WithContext(context.Background())
	if _, err := view.Do(nil, DistQuery(0, 7)); err != nil {
		t.Fatal(err)
	}
	// The base PreparedGraph sees the substrate the view built.
	if st := p.Stats(); len(st.Substrates) == 0 {
		t.Fatal("substrates built through a view not visible on the base")
	}
	if p.BuildRounds().Total == 0 {
		t.Fatal("view build cost not visible in base BuildRounds")
	}
}
