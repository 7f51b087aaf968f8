package obs

// Log-bucketed latency histogram (HDR-lite): each power-of-two octave of
// nanoseconds is split into 2^histMinorBits linear sub-buckets, so the
// worst-case relative resolution is 1/2^histMinorBits (12.5%) across the
// whole range — nanoseconds to minutes — with one fixed array and no
// per-observation allocation. Observe is a few atomic adds; Snapshot is
// a lock-free copy; snapshots merge, which is how the fleet front renders
// one histogram from per-replica ones.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histMinorBits sets the per-octave resolution: 2^3 = 8 linear
	// sub-buckets per power of two (≤ 12.5% relative error).
	histMinorBits = 3
	histMinors    = 1 << histMinorBits
	// histMaxMajor caps the covered range at 2^40 ns ≈ 18 minutes;
	// anything slower clamps into the last bucket (Max still holds the
	// exact observation).
	histMaxMajor = 40
	// histBuckets: the first octaves 0..histMinors-1 are exact single
	// values, then 8 sub-buckets per octave up to histMaxMajor.
	histBuckets = (histMaxMajor-histMinorBits)<<histMinorBits + histMinors
)

// Histogram counts duration observations in log-spaced buckets. The zero
// value is NOT ready — use NewHistogram (or Registry.Histogram).
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64 // total ns
	count  atomic.Uint64
	max    atomic.Int64 // ns
}

// NewHistogram returns an empty standalone histogram (not registered).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIdx maps a nanosecond value to its bucket.
func bucketIdx(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < histMinors {
		return int(u)
	}
	major := bits.Len64(u) // >= histMinorBits+1 here
	shift := major - 1 - histMinorBits
	idx := (major-histMinorBits)<<histMinorBits + int((u>>uint(shift))&(histMinors-1))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper returns the inclusive upper bound (ns) of bucket i — the
// `le` edge of the Prometheus exposition.
func bucketUpper(i int) int64 {
	if i < histMinors {
		return int64(i)
	}
	major := i>>histMinorBits + histMinorBits
	minor := i & (histMinors - 1)
	shift := uint(major - 1 - histMinorBits)
	lower := uint64(1)<<(major-1) + uint64(minor)<<shift
	return int64(lower + 1<<shift - 1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(d.Nanoseconds()) }

// ObserveNS records one duration given in nanoseconds.
func (h *Histogram) ObserveNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIdx(ns)].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of a histogram, safe to merge and
// render without touching the live counters.
type Snapshot struct {
	Counts [histBuckets]uint64
	Sum    int64 // ns
	Count  uint64
	Max    int64 // ns
}

// Snapshot copies the current state. Concurrent observations may land in
// some fields and not others (the copy is not atomic across buckets);
// for exact accounting, snapshot quiescent histograms or difference two
// snapshots of a monotone run.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	s.Max = h.max.Load()
	return s
}

// Merge adds o into s.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
	if o.Max > s.Max {
		s.Max = o.Max
	}
}
