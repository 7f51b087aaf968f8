package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank for
// it to be reported as resolved: with fewer, the figure is one of a
// handful of outliers, not a percentile.
const minBeyond = 10

// recorder is one client's latency log: raw nanosecond samples appended
// into a preallocated slice, with the store's hit flag beside each. The
// serving stack's obs.Histogram is not used for reported latencies; its
// buckets are ~12% wide, wider than the regression bounds.
type recorder struct {
	ns   []int64
	miss []bool
}

func newRecorder(capacity int) *recorder {
	return &recorder{ns: make([]int64, 0, capacity), miss: make([]bool, 0, capacity)}
}

func (r *recorder) add(d time.Duration, hit bool) {
	r.ns = append(r.ns, int64(d))
	r.miss = append(r.miss, !hit)
}

// merged returns every client's samples in one ascending slice.
func merged(recs []*recorder) []int64 {
	var all []int64
	for _, r := range recs {
		all = append(all, r.ns...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// splitByHit returns the hit and miss samples, each ascending.
func splitByHit(recs []*recorder) (hits, misses []int64) {
	for _, r := range recs {
		for i, ns := range r.ns {
			if r.miss[i] {
				misses = append(misses, ns)
			} else {
				hits = append(hits, ns)
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
	sort.Slice(misses, func(i, j int) bool { return misses[i] < misses[j] })
	return hits, misses
}

// rank is the nearest-rank position (1-based) of the pct-th percentile
// among n samples: the smallest rank with at least pct% of the samples at
// or below it. Integer arithmetic, so 95% of 400 is rank 380 exactly.
func rank(n, pct int) int {
	r := (n*pct + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the exact nearest-rank percentile of ascending
// samples, 0 when there are none.
func percentile(sorted []int64, pct int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), pct)-1]
}

// resolved reports whether at least minBeyond of n samples lie beyond
// the percentile's rank.
func resolved(n, pct int) bool {
	return n > 0 && n-rank(n, pct) >= minBeyond
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// median of unsorted samples (nearest rank), 0 when there are none.
func median(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 50)
}
