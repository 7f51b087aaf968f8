package label

import (
	"context"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// randomArcs draws a digraph on n nodes with negative, parallel and self
// arcs; the last fifth of the nodes has no incoming arc from the rest, so
// rows hold Inf. Positive self-loops only, unless negCycle plants a negative
// cycle (which the negative arcs may close on their own anyway).
func randomArcs(rng *rand.Rand, n int, negCycle bool) []DDGArc {
	var arcs []DDGArc
	island := n - n/5
	for i := 0; i < 4*n; i++ {
		from, to := rng.IntN(n), rng.IntN(n)
		if from < island && to >= island {
			continue
		}
		l := rng.Int64N(40) - 4
		if from == to {
			l = rng.Int64N(5)
		}
		arcs = append(arcs, DDGArc{From: int32(from), To: int32(to), Len: l})
		if rng.IntN(8) == 0 {
			arcs = append(arcs, DDGArc{From: int32(from), To: int32(to), Len: l + rng.Int64N(3)})
		}
	}
	if negCycle && n > 1 {
		a, b := rng.IntN(n), rng.IntN(n-1)
		if b >= a {
			b++
		}
		arcs = append(arcs, DDGArc{From: int32(a), To: int32(b), Len: 3}, DDGArc{From: int32(b), To: int32(a), Len: -4})
	}
	return arcs
}

// TestKernelMatchesBellmanFord holds the kernel to the baseline it
// replaces: on random digraphs with negative arcs, Inf arcs, parallel arcs,
// self-loops and unreachable nodes, through both of its loaders, the verdict
// equals spath.BellmanFord's from a super source and every row equals
// BellmanFord's from that node. One kernel value serves every graph, sizes
// shrinking and growing, so a buffer that outlives its graph shows.
func TestKernelMatchesBellmanFord(t *testing.T) {
	rng := planar.NewRand(83)
	var k kernel
	verdicts := map[bool]int{}
	for _, n := range []int{200, 1, 40, 2, 5, 200, 5, 40, 1, 2} {
		for rep := 0; rep < 6; rep++ {
			arcs := randomArcs(rng, n, rep%3 == 2)
			// The leaf loader takes a skeleton plus per-dart lengths, some
			// Inf; the arc loader takes the active arcs alone.
			lengths := make([]int64, len(arcs))
			var active []DDGArc
			for i, a := range arcs {
				if lengths[i] = a.Len; rng.IntN(10) == 0 {
					lengths[i] = spath.Inf
				} else {
					active = append(active, a)
				}
			}
			dg, super := spath.NewDigraph(n+1), n
			for _, a := range active {
				dg.AddArc(int(a.From), int(a.To), a.Len, -1)
			}
			for i := 0; i < n; i++ {
				dg.AddArc(super, i, 0, -1)
			}
			_, want := spath.BellmanFord(dg, super)
			verdicts[want]++

			bp := csrOf(n, arcs)
			before := clonePlan(bp)
			for _, load := range []func() int{
				func() int { return k.loadLeaf(bp, lengths) },
				func() int { k.loadArcs(n, active); return len(active) },
			} {
				if got := load(); got != len(active) {
					t.Fatalf("n=%d: loader counted %d active arcs of %d", n, got, len(active))
				}
				if got := k.potentials(); got != want {
					t.Fatalf("n=%d: kernel verdict %v, Bellman–Ford %v", n, got, want)
				}
				if !want {
					continue
				}
				row := make([]int64, n)
				for i := 0; i < n; i++ {
					k.row(i, row)
					res, _ := spath.BellmanFord(dg, i)
					if !reflect.DeepEqual(row, res.Dist[:n]) {
						t.Fatalf("n=%d source %d:\nkernel %v\nBellman–Ford %v", n, i, row, res.Dist[:n])
					}
				}
			}
			if !reflect.DeepEqual(bp, before) {
				t.Fatalf("n=%d: the kernel wrote through the skeleton it was lent", n)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts not both exercised: %v", verdicts)
	}
}

// TestShortestMatchesDijkstra holds the cycle enumerations' bounded search
// to spath.Dijkstra on the graph with the masked arcs removed: on random
// non-negative digraphs with parallel arcs, self-loops, dartless arcs and
// unreachable nodes, through both loaders, shortest returns Dijkstra's
// distance where it is below the bound and Inf elsewhere. One kernel serves
// every search, sizes shrinking and growing, so state a search leaves behind
// shows.
func TestShortestMatchesDijkstra(t *testing.T) {
	rng := planar.NewRand(26)
	var k kernel
	below := 0
	for _, n := range []int{30, 1, 8, 2, 60, 5, 30} {
		for rep := 0; rep < 10; rep++ {
			// A leaf's arc i is dart i; a DDG's clique and zero arcs have none.
			leaf := randomArcs(rng, n, false)
			lengths := make([]int64, len(leaf))
			for i := range leaf {
				leaf[i].Len = max(leaf[i].Len, 0)
				leaf[i].Dart, lengths[i] = int32(i), leaf[i].Len
			}
			ddg := append([]DDGArc(nil), leaf...)
			for i := range ddg {
				if rng.IntN(4) == 0 {
					ddg[i].Dart = int32(planar.NoDart)
				}
			}
			bp := csrOf(n, leaf)
			for loader, arcs := range [][]DDGArc{leaf, ddg} {
				if loader == 0 {
					k.loadLeaf(bp, lengths)
				} else {
					k.loadArcs(n, arcs)
				}
				for q := 0; q < 20; q++ {
					// Mostly the way a cycle search asks: from one end of an
					// arc to the other, that arc masked.
					src, dst, skip := rng.IntN(n), rng.IntN(n), planar.NoDart
					if len(arcs) > 0 && rng.IntN(3) > 0 {
						a := arcs[rng.IntN(len(arcs))]
						src, dst, skip = int(a.From), int(a.To), planar.Dart(a.Dart)
					}
					bound := spath.Inf
					if rng.IntN(2) == 0 {
						bound = rng.Int64N(60)
					}
					dg := spath.NewDigraph(n)
					for _, a := range arcs {
						if !(int(a.From) == src && int(a.To) == dst && planar.Dart(a.Dart) == skip) {
							dg.AddArc(int(a.From), int(a.To), a.Len, -1)
						}
					}
					want := spath.Dijkstra(dg, src).Dist[dst]
					if want >= bound {
						want = spath.Inf
					} else {
						below++
					}
					if got := k.shortest(src, dst, skip, bound); got != want {
						t.Fatalf("n=%d: dist(%d → %d) skipping %d below %d: kernel %d, Dijkstra %d", n, src, dst, skip, bound, got, want)
					}
				}
			}
		}
	}
	if below == 0 {
		t.Fatal("no search found a distance below its bound")
	}
}

// csrOf lays arcs out as a leaf skeleton whose dart i is arc i.
func csrOf(n int, arcs []DDGArc) *bagPlan {
	bp := &bagPlan{leafStart: make([]int32, n+1), leafTo: make([]int32, len(arcs)), leafDart: make([]planar.Dart, len(arcs))}
	for _, a := range arcs {
		bp.leafStart[a.From+1]++
	}
	for u := 0; u < n; u++ {
		bp.leafStart[u+1] += bp.leafStart[u]
	}
	next := append([]int32(nil), bp.leafStart[:n]...)
	for i, a := range arcs {
		bp.leafTo[next[a.From]], bp.leafDart[next[a.From]] = a.To, planar.Dart(i)
		next[a.From]++
	}
	return bp
}

func clonePlan(bp *bagPlan) *bagPlan {
	return &bagPlan{
		leafStart: append([]int32(nil), bp.leafStart...),
		leafTo:    append([]int32(nil), bp.leafTo...),
		leafDart:  append([]planar.Dart(nil), bp.leafDart...),
	}
}

// TestConcurrentPassesShareOnePlan runs two goroutines of feasibility
// probes, each with its own lengths, over one shared tree: the plan's
// skeleton arrays are read by both, so under -race any write through them —
// a kernel buffer aliasing the plan — is a reported race, and without it a
// changed skeleton or a wrong verdict is the failure.
func TestConcurrentPassesShareOnePlan(t *testing.T) {
	g := planar.Grid(9, 9)
	tree := bdd.Build(g, 8, ledger.New())
	pl := mustPlan(t, tree, Dual)
	before := make([]*bagPlan, len(pl.bags))
	for i := range pl.bags {
		before[i] = clonePlan(&pl.bags[i])
	}
	ctx := context.Background()
	rng := planar.NewRand(17)
	const rounds = 200
	type drive struct {
		lens [][]int64
		want []bool
		got  []bool
	}
	drives := make([]*drive, 2)
	for w := range drives {
		d := &drive{got: make([]bool, rounds)}
		for r := 0; r < rounds; r++ {
			lens := randomLengths(g, rng, -1-int64(w), 30)
			ok, err := Feasible(ctx, tree, lens, ledger.New())
			if err != nil {
				t.Fatal(err)
			}
			d.lens, d.want = append(d.lens, lens), append(d.want, ok)
		}
		drives[w] = d
	}
	var wg sync.WaitGroup
	for _, d := range drives {
		wg.Add(1)
		go func(d *drive) {
			defer wg.Done()
			for r, lens := range d.lens {
				ok, err := Feasible(ctx, tree, lens, ledger.New())
				if err != nil {
					t.Error(err)
					return
				}
				d.got[r] = ok
			}
		}(d)
	}
	wg.Wait()
	feasible := 0
	for w, d := range drives {
		if !reflect.DeepEqual(d.got, d.want) {
			t.Fatalf("goroutine %d: concurrent verdicts differ from the serial ones", w)
		}
		for _, ok := range d.want {
			if ok {
				feasible++
			}
		}
	}
	if feasible == 0 || feasible == 2*rounds {
		t.Fatalf("verdicts not both exercised: %d of %d feasible", feasible, 2*rounds)
	}
	for i := range pl.bags {
		if !reflect.DeepEqual(clonePlan(&pl.bags[i]), before[i]) {
			t.Fatalf("bag %d: a pass changed the plan's shared skeleton", i)
		}
	}
}
