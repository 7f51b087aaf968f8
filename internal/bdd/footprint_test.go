package bdd

import (
	"runtime"
	"runtime/debug"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// TestBDDFootprintBoundsHeap holds the estimate the store budgets a tree by
// to the heap the tree keeps alive: FootprintBytes lies within [1, 1.25]×
// it. Heap deltas only ever gain from stray allocations, so the test takes
// the least of three builds. The graph's face tables are built first (the
// graph owns them, not the tree). HeapAlloc is process-wide, so the test
// must not run beside others, and -race's shadow memory makes it
// meaningless there.
func TestBDDFootprintBoundsHeap(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("heap deltas are not comparable under -race")
			}
		}
	}
	for _, gr := range []struct {
		name string
		g    *planar.Graph
	}{
		{"triangulation400-seed1", planar.StackedTriangulation(400, planar.NewRand(1))},
		{"grid20x20", planar.Grid(20, 20)},
	} {
		gr.g.Faces()
		real, est := int64(-1), int64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			tree := Build(gr.g, 0, ledger.New())
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); real < 0 || d < real {
				real = d
			}
			est = tree.FootprintBytes()
			runtime.KeepAlive(tree)
		}
		t.Logf("%s: estimate %d, heap %d (%.3fx)", gr.name, est, real, float64(est)/float64(real))
		if real <= 0 || est < real || 4*est > 5*real {
			t.Fatalf("%s: FootprintBytes %d outside [heap, 1.25·heap] for heap %d", gr.name, est, real)
		}
	}
}
