package congest

import (
	"testing"

	"planarflow/internal/planar"
)

// Old-vs-new scheduler benchmarks on Grid(32,32). The flat-mailbox
// scheduler must beat the channel engine on wall-clock and on allocs/op
// (run with -benchmem): it allocates no per-round channels and reuses its
// inbox arenas and worker pool across rounds.

func benchBFS(b *testing.B, e Runner) {
	b.Helper()
	b.ReportAllocs()
	var stats Stats
	for i := 0; i < b.N; i++ {
		_, stats = DistributedBFS(e, 0)
	}
	b.ReportMetric(float64(stats.Rounds), "rounds")
}

func BenchmarkSchedBFSGrid32(b *testing.B) {
	benchBFS(b, NewEngine(planar.Grid(32, 32)))
}

func BenchmarkChanBFSGrid32(b *testing.B) {
	benchBFS(b, NewChanEngine(planar.Grid(32, 32)))
}

// FloodMin keeps every vertex busy most rounds — the dense-activity regime
// where the worker pool, not the worklist, carries the load.
func benchFlood(b *testing.B, e Runner, n int) {
	b.Helper()
	b.ReportAllocs()
	vals := make([]int64, n)
	for v := range vals {
		vals[v] = int64(n - v)
	}
	for i := 0; i < b.N; i++ {
		FloodMin(e, vals)
	}
}

func BenchmarkSchedFloodMinGrid32(b *testing.B) {
	g := planar.Grid(32, 32)
	benchFlood(b, NewEngine(g), g.N())
}

func BenchmarkChanFloodMinGrid32(b *testing.B) {
	g := planar.Grid(32, 32)
	benchFlood(b, NewChanEngine(g), g.N())
}
