package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// TestMinCyclesMatchReferences holds label.MinCycles, the cycle enumeration
// GlobalMinCut and DirectedGirth run on the labeling's own CSR kernel, to
// the per-bag enumerations it replaced — a spath.Digraph of the whole bag
// rebuilt per candidate arc and a full Dijkstra read at one node — bag for
// bag: the free-reversal dual labeling (every bag, leaves and DDGs) and the
// directed primal one (its leaves), on random-direction snakes, grids and
// triangulations with weights in [0, k], zeros and ties included.
func TestMinCyclesMatchReferences(t *testing.T) {
	rng := planar.NewRand(26)
	type row struct {
		name      string
		g         *planar.Graph
		leafLimit int
	}
	var rows []row
	for trial := 0; trial < 60; trial++ {
		var g *planar.Graph
		switch trial % 3 {
		case 0:
			g = planar.BoustrophedonGrid(3+rng.IntN(10), 3+rng.IntN(10))
		case 1:
			g = planar.Grid(3+rng.IntN(10), 3+rng.IntN(10))
		default:
			g = planar.StackedTriangulation(10+rng.IntN(140), rng)
		}
		k := []int64{0, 1, 3, 9, 40}[trial%5]
		g = planar.WithRandomDirections(g.WithEdgeAttrs(func(_ int, old planar.Edge) planar.Edge {
			old.Weight = rng.Int64N(k + 1)
			return old
		}), rng)
		rows = append(rows, row{fmt.Sprintf("trial %d (n=%d, k=%d)", trial, g.N(), k), g, []int{0, 6, 8, 12}[trial%4]})
	}
	var leaves, ddgs, finite int
	for _, r := range rows {
		p := artifact.New(r.g)
		dual, err := p.DualLabels(artifact.FreeReversal, r.leafLimit, ledger.New())
		if err != nil {
			t.Fatal(err)
		}
		primal, err := p.PrimalLabels(artifact.Directed, r.leafLimit, ledger.New())
		if err != nil {
			t.Fatal(err)
		}
		for _, la := range []*label.Labeling{dual, primal} {
			visited := map[*bdd.Bag]bool{}
			_, retained := la.State()
			la.MinCycles(func(b *bdd.Bag, got int64) {
				var want int64
				switch {
				case b.IsLeaf() && la.View() == label.Dual:
					want = refLeafMinCycle(r.g, b, la.Lengths)
					leaves++
				case b.IsLeaf():
					want = refLeafDirMinCycle(r.g, b)
					leaves++
				default:
					want = refDDGMinCycle(retained[b.ID])
					ddgs++
				}
				if got != want {
					t.Fatalf("%s, %v view, bag %d (leaf %v): MinCycles %d, reference %d", r.name, la.View(), b.ID, b.IsLeaf(), got, want)
				}
				if got < spath.Inf {
					finite++
				}
				visited[b] = true
			})
			for _, b := range la.T.Bags {
				if want := b.IsLeaf() || la.View() == label.Dual; visited[b] != want {
					t.Fatalf("%s, %v view: bag %d (leaf %v) visited %v", r.name, la.View(), b.ID, b.IsLeaf(), visited[b])
				}
			}
		}
	}
	t.Logf("%d graphs: %d leaves, %d DDGs, %d finite", len(rows), leaves, ddgs, finite)
	if ddgs == 0 || finite == 0 || finite == leaves+ddgs {
		t.Fatalf("sweep too narrow: %d leaves, %d DDGs, %d finite", leaves, ddgs, finite)
	}
}

// TestMinCyclesConcurrent runs MinCycles from several goroutines over one
// resident labeling, as concurrent first answers on one bundle do: each runs
// its own kernel over the shared plan skeletons and DDGs, so under -race a
// write through them is a reported race, and without it a differing value.
func TestMinCyclesConcurrent(t *testing.T) {
	rng := planar.NewRand(27)
	g := planar.WithRandomWeights(planar.BoustrophedonGrid(9, 9), rng, 0, 9, 1, 1)
	la, err := artifact.New(g).DualLabels(artifact.FreeReversal, 8, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	perBag := func() map[int]int64 {
		got := map[int]int64{}
		la.MinCycles(func(b *bdd.Bag, w int64) { got[b.ID] = w })
		return got
	}
	want := perBag()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := perBag(); !reflect.DeepEqual(got, want) {
				t.Error("a concurrent enumeration differs from the serial one")
			}
		}()
	}
	wg.Wait()
}

// refLeafMinCycle finds the minimum dart-simple dual cycle inside a leaf bag:
// for every dual arc a, w(a) + dist(head(a) -> tail(a)) avoiding rev(a).
func refLeafMinCycle(g *planar.Graph, b *bdd.Bag, lengths []int64) int64 {
	idx := make(map[int]int, len(b.Faces))
	for i, f := range b.Faces {
		idx[f] = i
	}
	type arc struct {
		d        planar.Dart
		from, to int
	}
	var arcs []arc
	b.DualArcs(g, func(d planar.Dart, from, to int) {
		if lengths[d] < spath.Inf {
			arcs = append(arcs, arc{d: d, from: idx[from], to: idx[to]})
		}
	})
	best := spath.Inf
	for _, a := range arcs {
		if lengths[a.d] >= best {
			continue
		}
		if a.from == a.to {
			// Dual self-loop: valid cycle by itself.
			if lengths[a.d] < best {
				best = lengths[a.d]
			}
			continue
		}
		dg := spath.NewDigraph(len(b.Faces))
		for _, o := range arcs {
			if o.d == planar.Rev(a.d) {
				continue
			}
			dg.AddArc(o.from, o.to, lengths[o.d], int(o.d))
		}
		if back := spath.Dijkstra(dg, a.to).Dist[a.from]; back < spath.Inf {
			if c := lengths[a.d] + back; c < best {
				best = c
			}
		}
	}
	return best
}

// refDDGMinCycle enumerates cycles crossing a bag's dual separator: per
// separator arc, and per split face via its zero transitions.
func refDDGMinCycle(ddg *label.BagDDG) int64 {
	best := spath.Inf
	build := func(skip func(a label.DDGArc) bool) *spath.Digraph {
		dg := spath.NewDigraph(len(ddg.Nodes))
		for _, a := range ddg.Arcs {
			if skip(a) {
				continue
			}
			dg.AddArc(int(a.From), int(a.To), a.Len, -1)
		}
		return dg
	}
	// (1) Cycles using a dual separator arc a (and hence not rev(a)).
	for _, a := range ddg.Arcs {
		if a.Dart == int32(planar.NoDart) || a.Len >= best {
			continue
		}
		rev := int32(planar.Rev(planar.Dart(a.Dart)))
		dg := build(func(o label.DDGArc) bool { return o.Dart == rev })
		if back := spath.Dijkstra(dg, int(a.To)).Dist[a.From]; back < spath.Inf {
			if c := a.Len + back; c < best {
				best = c
			}
		}
	}
	// (2) Cycles through a split face f without separator arcs at f: they
	// enter one representative and leave the other; forbid f's internal
	// zero arcs so the path is forced around.
	for _, reps := range ddg.RepsOf {
		if len(reps) < 2 {
			continue
		}
		inReps := map[int]bool{}
		for _, r := range reps {
			inReps[r] = true
		}
		dg := build(func(o label.DDGArc) bool {
			return o.Dart == int32(planar.NoDart) && o.Len == 0 && inReps[int(o.From)] && inReps[int(o.To)]
		})
		for _, r1 := range reps {
			dist := spath.Dijkstra(dg, r1).Dist
			for _, r2 := range reps {
				if r1 != r2 && dist[r2] < best {
					best = dist[r2]
				}
			}
		}
	}
	return best
}

// refLeafDirMinCycle finds the minimum directed cycle inside a leaf bag
// explicitly: min over arcs (u -> v) of w + dist(v -> u).
func refLeafDirMinCycle(g *planar.Graph, b *bdd.Bag) int64 {
	verts := map[int]int{}
	id := func(v int) int {
		if i, ok := verts[v]; ok {
			return i
		}
		verts[v] = len(verts)
		return len(verts) - 1
	}
	type arc struct {
		u, v int
		w    int64
	}
	var arcs []arc
	for e := 0; e < g.M(); e++ {
		if !b.HasEdge(e) {
			continue
		}
		ed := g.Edge(e)
		arcs = append(arcs, arc{id(ed.U), id(ed.V), ed.Weight})
	}
	dg := spath.NewDigraph(len(verts))
	for _, a := range arcs {
		dg.AddArc(a.u, a.v, a.w, -1)
	}
	best := spath.Inf
	for _, a := range arcs {
		if a.w >= best {
			continue
		}
		if back := spath.Dijkstra(dg, a.v).Dist[a.u]; back < spath.Inf && a.w+back < best {
			best = a.w + back
		}
	}
	return best
}
