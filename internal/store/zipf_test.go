package store

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"planarflow"
)

// TestLRUKeepsZipfHead is the eviction policy's serving invariant: under
// Zipf-popular traffic over a working set twice the budget, the LRU keeps
// the popular head resident (hit rate >= 0.80) while the tail churns
// (evictions > 0), and every answer — served from a first build, a
// resident bundle or a rebuild after eviction — equals the library's.
// One caller and a seeded stream, so hits, misses and evictions are the
// same numbers on every run; there is no daemon and no clock.
func TestLRUKeepsZipfHead(t *testing.T) {
	const (
		graphs   = 16
		resident = graphs / 2
		skew     = 1.3
		queries  = 800
	)
	ctx := context.Background()

	// The budget is denominated in one graph's footprint with the mix's
	// substrates (primal + dual labelings) warm.
	g0, err := gridSpec(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	n, faces := g0.N(), g0.NumFaces()
	p0, err := planarflow.Prepare(g0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist(p0, 0, n-1); err != nil {
		t.Fatal(err)
	}
	if _, err := p0.Do(nil, planarflow.DualDistQuery(0, 1)); err != nil {
		t.Fatal(err)
	}
	unit := p0.Stats().Bytes

	s := New(Config{MaxBytes: resident*unit + unit/2})
	ids := make([]string, graphs)
	truth := make([]*planarflow.PreparedGraph, graphs)
	for i := range ids {
		ids[i] = fmt.Sprintf("g%02d", i)
		g, err := s.RegisterSpec(ids[i], gridSpec(100+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if truth[i], err = planarflow.Prepare(g); err != nil {
			t.Fatal(err)
		}
	}

	// P(rank i) ∝ 1/(i+1)^skew by CDF inversion (math/rand/v2 has no Zipf).
	cdf := make([]float64, graphs)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), skew)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewPCG(30, 30))
	for q := 0; q < queries; q++ {
		gi := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		var query planarflow.Query
		switch roll := rng.Float64(); {
		case roll < 0.80:
			query = planarflow.DistQuery(rng.IntN(n), rng.IntN(n))
		case roll < 0.95:
			query = planarflow.DualDistQuery(rng.IntN(faces), rng.IntN(faces))
		default:
			query = planarflow.DualSSSPQuery(rng.IntN(faces))
		}
		got, _, err := s.Do(ctx, ids[gi], query)
		if err != nil {
			t.Fatalf("query %d (%s on %s): %v", q, query.Kind, ids[gi], err)
		}
		want, err := truth[gi].Do(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || !slices.Equal(got.Dist, want.Dist) {
			t.Fatalf("query %d (%s on %s): store answered %d %v, library %d %v",
				q, query.Kind, ids[gi], got.Value, got.Dist, want.Value, want.Dist)
		}
	}

	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with %d graphs under a %d-bundle budget: %+v", graphs, resident, st)
	}
	if hr := st.HitRate(); hr < 0.80 {
		t.Fatalf("hit rate %.3f < 0.80: the LRU lost the Zipf head (hits %d, misses %d, evictions %d)",
			hr, st.Hits, st.Misses, st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("store holds %d bytes over its %d budget with nothing pinned", st.Bytes, st.MaxBytes)
	}
	t.Logf("hits %d misses %d (rate %.3f), evictions %d, resident %d/%d",
		st.Hits, st.Misses, st.HitRate(), st.Evictions, st.Resident, graphs)
}
