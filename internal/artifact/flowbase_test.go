package artifact

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// TestFlowBaseIsACache: building max-flow's λ = 0 state charges nothing,
// adds a Caches row and its bytes to Stats and Totals, counts as no
// substrate and no build round, changes no snapshot byte, and is built once
// per leaf limit.
func TestFlowBaseIsACache(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(6, 7), planar.NewRand(4), 1, 9, 1, 16)
	p := New(g)
	if _, err := p.DualLabels(Undirected, 0, ledger.New()); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := p.Export(&before); err != nil {
		t.Fatal(err)
	}
	st0 := p.Stats()
	b0, n0, r0 := p.Totals()
	build0 := p.BuildLedger().Entries()

	led := ledger.New()
	fb, err := p.FlowBase(0, led)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := p.FlowBase(p.ResolveLeafLimit(0), ledger.New()); err != nil || again != fb {
		t.Fatalf("second FlowBase: %p, %v; want the first, %p", again, err, fb)
	}
	if n := len(led.Entries()); n != 0 {
		t.Fatalf("FlowBase charged %d entries", n)
	}
	if len(fb.Lengths) != g.NumDarts() || len(fb.Dist) != g.Faces().NumFaces() || len(fb.Led.Entries()) == 0 {
		t.Fatalf("state: %d lengths for %d darts, %d potentials for %d faces, %d recorded entries",
			len(fb.Lengths), g.NumDarts(), len(fb.Dist), g.Faces().NumFaces(), len(fb.Led.Entries()))
	}
	st := p.Stats()
	want := []SubstrateStats{{Kind: flowBase, LeafLimit: p.ResolveLeafLimit(0), Bytes: fb.FootprintBytes()}}
	if !reflect.DeepEqual(st.Caches, want) || !reflect.DeepEqual(st.Substrates, st0.Substrates) ||
		st.Bytes != st0.Bytes+fb.FootprintBytes() || st.BuildRounds != st0.BuildRounds {
		t.Fatalf("stats %+v, was %+v; want one cache row %+v", st, st0, want)
	}
	if b, n, r := p.Totals(); b != b0+fb.FootprintBytes() || n != n0 || r != r0 || b != st.Bytes || n != len(st.Substrates) {
		t.Fatalf("totals (%d, %d, %d), were (%d, %d, %d); stats %+v", b, n, r, b0, n0, r0, st)
	}
	if got := p.BuildLedger().Entries(); !reflect.DeepEqual(got, build0) {
		t.Fatalf("build ledger grew: %v, was %v", got, build0)
	}
	var after bytes.Buffer
	if err := p.Export(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatal("the snapshot changed")
	}
}

// TestFlowBaseFootprintBoundsHeap holds the state's estimate to the heap it
// keeps alive, as TestFootprintBoundsHeap does a labeling's: within
// [heap, 2·heap], the plans and the tree built before measuring — both
// views' plans, the primal one for the min-cut pass the state records, and
// their whole-graph skeletons, which every probe and source-directed SSSP
// over the tree loads and the plan, not the state, keeps. The heap is the
// median of three builds on fresh bundles.
func TestFlowBaseFootprintBoundsHeap(t *testing.T) {
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
		{"grid12x12", planar.WithRandomWeights(planar.Grid(12, 12), planar.NewRand(1), 1, 9, 1, 10)},
		{"triangulation100", planar.WithRandomWeights(planar.StackedTriangulation(100, planar.NewRand(1)), planar.NewRand(1), 1, 9, 1, 10)},
		{"grid20x20", planar.WithRandomWeights(planar.Grid(20, 20), planar.NewRand(1), 1, 9, 1, 10)},
	} {
		var heaps [3]int64
		var est int64
		for rep := range heaps {
			p := New(gr.g)
			// A labeling of the same tree derives the dual plan and its costs,
			// and a source-directed SSSP over it, in each view, the plans'
			// whole-graph skeletons.
			la, err := p.DualLabels(Undirected, 0, ledger.New())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []label.View{label.Dual, label.Primal} {
				if _, err := label.SSSPFrom(context.Background(), v, la.T, la.Lengths, 0, ledger.New(), ledger.New()); err != nil {
					t.Fatal(err)
				}
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			fb, err := p.FlowBase(0, ledger.New())
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m1)
			heaps[rep] = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
			est = fb.FootprintBytes()
			runtime.KeepAlive(p)
		}
		// The median of three builds: now and then the runtime keeps ≈ 5 KB
		// of its own alive across one, which is no part of the state.
		slices.Sort(heaps[:])
		real := heaps[1]
		t.Logf("%s: estimate %d, heap %d (%.2fx)", gr.name, est, real, float64(est)/float64(real))
		if real <= 0 || est < real || est > 2*real {
			t.Fatalf("%s: FootprintBytes %d outside [heap, 2·heap] for heap %d", gr.name, est, real)
		}
	}
}
