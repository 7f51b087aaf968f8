package label

import (
	"runtime"
	"runtime/debug"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// TestFootprintBoundsHeap holds the one estimator the store budgets by to
// the heap it stands for: for both views, FootprintBytes is at least what a
// labeling keeps alive and at most twice that. The per-tree plan is derived
// before measuring — its memory is shared by every labeling over the tree
// and charged to none. HeapAlloc is process-wide, so the test must not run
// beside others (no t.Parallel here), and the race detector's shadow
// allocations make it meaningless there.
func TestFootprintBoundsHeap(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("heap deltas are not comparable under -race")
			}
		}
	}
	graphs := []struct {
		name string
		g    *planar.Graph
	}{
		{"grid12x12", planar.Grid(12, 12)},
		{"triangulation400", planar.StackedTriangulation(400, planar.NewRand(5))},
		{"snake12x12", planar.BoustrophedonGrid(12, 12)},
	}
	for _, gr := range graphs {
		tree := bdd.Build(gr.g, 0, ledger.New())
		lens := UniformLengths(gr.g, false)
		for _, v := range []View{Dual, Primal} {
			mustPlan(t, tree, v)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			la := Compute(v, tree, lens, ledger.New())
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			real := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			est := la.FootprintBytes()
			t.Logf("%s/%s: estimate %d, heap %d (%.2fx)", v, gr.name, est, real, float64(est)/float64(real))
			if la.NegCycle || real <= 0 || est < real || est > 2*real {
				t.Fatalf("%s/%s: FootprintBytes %d outside [heap, 2·heap] for heap %d", v, gr.name, est, real)
			}
			runtime.KeepAlive(la)
		}
	}
}
