package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucket layout: exact singleton buckets
// below histMinors, then 8 linear sub-buckets per octave, contiguous
// edges, and clamping at both ends.
func TestBucketBoundaries(t *testing.T) {
	golden := []struct {
		ns  int64
		idx int
	}{
		{0, 0}, {1, 1}, {7, 7}, // exact singletons
		{8, 8}, {15, 15}, // first split octave, shift 0
		{16, 16}, {17, 16}, {18, 17}, // octave [16,32): width-2 sub-buckets
		{31, 23}, {32, 24}, // octave boundary
		{1000, bucketIdx(1000)},
		{-5, 0},                    // negative clamps to zero
		{1 << 62, histBuckets - 1}, // beyond histMaxMajor clamps to last
		{int64(^uint64(0) >> 1), histBuckets - 1},
	}
	for _, g := range golden {
		if got := bucketIdx(g.ns); got != g.idx {
			t.Errorf("bucketIdx(%d) = %d, want %d", g.ns, got, g.idx)
		}
	}

	// Every bucket's upper edge must map back into that bucket, and edges
	// must be contiguous: upper(i)+1 lands in bucket i+1.
	for i := 0; i < histBuckets-1; i++ {
		up := bucketUpper(i)
		if got := bucketIdx(up); got != i {
			t.Fatalf("bucketIdx(bucketUpper(%d)=%d) = %d", i, up, got)
		}
		if got := bucketIdx(up + 1); got != i+1 {
			t.Fatalf("bucketIdx(%d+1) = %d, want %d", up, got, i+1)
		}
		if next := bucketUpper(i + 1); next <= up {
			t.Fatalf("bucketUpper not increasing at %d: %d -> %d", i, up, next)
		}
	}

	// Relative bucket width stays within the designed 12.5% above the
	// singleton range.
	for i := histMinors; i < histBuckets; i++ {
		up, lo := bucketUpper(i), bucketUpper(i-1)+1
		if width := up - lo + 1; float64(width) > 0.125*float64(lo)+1 {
			t.Fatalf("bucket %d too wide: [%d,%d]", i, lo, up)
		}
	}
}

// TestConcurrentMergeEquivalence bumps one shared histogram from many
// goroutines and separately each goroutine's private histogram, then
// checks the merged private snapshots equal the shared snapshot. Run
// under -race this also exercises the atomic paths.
func TestConcurrentMergeEquivalence(t *testing.T) {
	const workers, per = 8, 2000
	shared := NewHistogram()
	privs := make([]*Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		privs[w] = NewHistogram()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				v := rng.Int63n(int64(10 * time.Second))
				shared.ObserveNS(v)
				privs[w].ObserveNS(v)
			}
		}(w)
	}
	wg.Wait()
	var merged Snapshot
	for _, p := range privs {
		merged.Merge(p.Snapshot())
	}
	got := shared.Snapshot()
	if got != merged {
		t.Fatalf("merged private snapshots != shared snapshot\nshared: count=%d sum=%d max=%d\nmerged: count=%d sum=%d max=%d",
			got.Count, got.Sum, got.Max, merged.Count, merged.Sum, merged.Max)
	}
}
