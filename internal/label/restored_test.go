package label_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/snapshot"
)

// leastHeap returns the least heap growth that keeping f's result alive
// costs over three calls — heap deltas only ever gain from stray
// allocations — and the last call's result.
func leastHeap(f func() any) (real int64, x any) {
	real = -1
	for range 3 {
		x = nil
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		x = f()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); real < 0 || d < real {
			real = d
		}
	}
	return real, x
}

// TestRestoredFootprintBoundsHeap is TestFootprintBoundsHeap for a labeling
// restored from a snapshot: on Tri(400) and Grid(20,20), in both views, the
// labeling snapshot.Decode returns has the computed one's FootprintBytes,
// and that estimate lies within [1, 2]× the heap the restored labeling keeps
// alive — a decoded snapshot of tree and labeling, less a decoded snapshot
// of the tree alone with the view's plan derived (the plan is the tree's,
// shared by every labeling over it). The computed labeling's heap is logged
// beside it. HeapAlloc is process-wide, so the test must not run beside
// others, and -race's shadow memory makes it meaningless there.
func TestRestoredFootprintBoundsHeap(t *testing.T) {
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
		{"triangulation400", planar.StackedTriangulation(400, planar.NewRand(1))},
		{"grid20x20", planar.Grid(20, 20)},
	} {
		g := gr.g
		tree := bdd.Build(g, 0, ledger.New())
		lens := label.UniformLengths(g, false)
		lengths := func(byte) ([]int64, error) { return lens, nil }
		te := snapshot.TreeEntry{LeafLimit: tree.LeafLimit, Tree: tree}
		encode := func(c *snapshot.Contents) []byte {
			var buf bytes.Buffer
			if err := snapshot.Encode(&buf, g, c); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		decode := func(data []byte) *snapshot.Contents {
			c, err := snapshot.Decode(bytes.NewReader(data), g, lengths)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		treeOnly := encode(&snapshot.Contents{Trees: []snapshot.TreeEntry{te}})
		for _, v := range []label.View{label.Dual, label.Primal} {
			if _, err := label.Layouts(v, tree); err != nil {
				t.Fatal(err)
			}
			computed, x := leastHeap(func() any { return label.Compute(v, tree, lens, ledger.New()) })
			la := x.(*label.Labeling)
			data := encode(&snapshot.Contents{Trees: []snapshot.TreeEntry{te},
				Labels: []snapshot.LabelEntry{{LeafLimit: tree.LeafLimit, Labeling: la}}})
			base, _ := leastHeap(func() any {
				c := decode(treeOnly)
				if _, err := label.Layouts(v, c.Trees[0].Tree); err != nil {
					t.Fatal(err)
				}
				return c
			})
			with, x := leastHeap(func() any { return decode(data) })
			real, est := with-base, x.(*snapshot.Contents).Labels[0].Labeling.FootprintBytes()
			t.Logf("%s/%s: estimate %d, heap %d computed, %d restored (%.2fx)", v, gr.name, est, computed, real, float64(est)/float64(real))
			if want := la.FootprintBytes(); est != want {
				t.Fatalf("%s/%s: restored FootprintBytes %d, computed %d", v, gr.name, est, want)
			}
			if real <= 0 || est < real || est > 2*real {
				t.Fatalf("%s/%s: FootprintBytes %d outside [heap, 2·heap] for restored heap %d", v, gr.name, est, real)
			}
		}
	}
}
