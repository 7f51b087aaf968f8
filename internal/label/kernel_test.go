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
// BellmanFord's from that node, computed after the rows of all lower nodes
// and reusing them, and computed alone. One kernel value serves every graph,
// sizes shrinking and growing, so a buffer that outlives its graph shows.
// Two more
// graphs per size have no negative arc, so the worklist starts empty and
// nothing relaxes; every negative verdict must come from the subtree check,
// the relaxation bound (n·m) never passed, among them one whose negative
// cycle closes through a subtree detached earlier (closedThroughDetached).
func TestKernelMatchesBellmanFord(t *testing.T) {
	rng, nonNeg := planar.NewRand(83), planar.NewRand(84)
	var k kernel
	verdicts := map[bool]int{}
	bySubtreeCheck, emptyWorklist := 0, 0
	for _, n := range []int{200, 1, 40, 2, 5, 200, 5, 40, 1, 2} {
		for rep := 0; rep < 8; rep++ {
			var arcs []DDGArc
			if rep < 6 {
				arcs = randomArcs(rng, n, rep%3 == 2)
			} else {
				arcs = randomArcs(nonNeg, n, false)
				for i := range arcs {
					arcs[i].Len = max(arcs[i].Len, 0)
				}
			}
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

			sk := csrOf(n, arcs)
			before := cloneSkeleton(sk)
			for _, load := range []func(){
				func() { k.load(sk, lengths) },
				func() { k.loadArcs(n, active) },
			} {
				load()
				if got := k.potentials(); got != want {
					t.Fatalf("n=%d: kernel verdict %v, Bellman–Ford %v", n, got, want)
				}
				if rep >= 6 {
					if k.relaxations != 0 {
						t.Fatalf("n=%d: %d relaxations without a negative arc", n, k.relaxations)
					}
					emptyWorklist++
				}
				if !want {
					if k.relaxations > n*len(k.length) {
						t.Fatalf("n=%d: negative verdict after %d relaxations, past n·m = %d", n, k.relaxations, n*len(k.length))
					}
					bySubtreeCheck++
					continue
				}
				// Each row twice: reusing the rows of every lower node, and
				// alone.
				k.reduce()
				rows, alone := make([]int64, n*n), make([]int64, n)
				for i := 0; i < n; i++ {
					row := rows[i*n : (i+1)*n]
					k.row(i, row, rows[:i*n])
					k.row(i, alone, nil)
					res, _ := spath.BellmanFord(dg, i)
					if !reflect.DeepEqual(row, res.Dist[:n]) || !reflect.DeepEqual(alone, res.Dist[:n]) {
						t.Fatalf("n=%d source %d:\nkernel with done rows %v\nkernel alone %v\nBellman–Ford %v", n, i, row, alone, res.Dist[:n])
					}
				}
			}
			if !reflect.DeepEqual(sk, before) {
				t.Fatalf("n=%d: the kernel wrote through the skeleton it was lent", n)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 || bySubtreeCheck == 0 || emptyWorklist == 0 {
		t.Fatalf("cases not all exercised: verdicts %v, %d by the subtree check, %d with an empty worklist",
			verdicts, bySubtreeCheck, emptyWorklist)
	}
	sk := csrOf(5, closedThroughDetached)
	lengths := make([]int64, len(closedThroughDetached))
	for i, a := range closedThroughDetached {
		lengths[i] = a.Len
	}
	for _, load := range []func(){
		func() { k.load(sk, lengths) },
		func() { k.loadArcs(5, closedThroughDetached) },
	} {
		if load(); k.potentials() || k.relaxations != 6 {
			t.Fatalf("closedThroughDetached: a verdict of no negative cycle, or one after %d relaxations, not 6", k.relaxations)
		}
	}
}

// TestRowsReuseDoneRows pins what a row gains from the bag's finished rows:
// on a cold_build Triangulation(100) and snake(12,12), weights 1–9, in every
// leaf of both views and every DDG the dual labeling retains, each row
// computed after the rows of the lower nodes equals the row computed alone,
// and all of them together pop at most 0.6× the heap items the rows alone
// do (0.36–0.52 per view when rows began reusing).
func TestRowsReuseDoneRows(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *planar.Graph
	}{
		{"triangulation100", planar.WithRandomWeights(planar.StackedTriangulation(100, planar.NewRand(1)), planar.NewRand(1), 1, 9, 1, 10)},
		{"snake12x12", planar.WithRandomWeights(planar.BoustrophedonGrid(12, 12), planar.NewRand(1), 1, 9, 1, 10)},
	} {
		tree := bdd.Build(c.g, 0, ledger.New())
		lengths := UniformLengths(c.g, false)
		var k kernel
		var with, alone [3]int // pops: primal leaves, dual leaves, dual DDGs
		// rows computes the loaded bag's rows both ways into its part's pops.
		rows := func(part, bag int) {
			if !k.potentials() {
				t.Fatalf("%s: bag %d has a negative cycle", c.name, bag)
			}
			k.reduce()
			n := k.n
			done, row := make([]int64, n*n), make([]int64, n)
			for i := 0; i < n; i++ {
				k.row(i, done[i*n:(i+1)*n], done[:i*n])
				with[part] += k.pops
				k.row(i, row, nil)
				alone[part] += k.pops
				if !reflect.DeepEqual(done[i*n:(i+1)*n], row) {
					t.Fatalf("%s: bag %d row %d: %v with the done rows, %v alone", c.name, bag, i, done[i*n:(i+1)*n], row)
				}
			}
		}
		for part, v := range []View{Primal, Dual} {
			pl := mustPlan(t, tree, v)
			for _, b := range tree.Bags {
				if b.IsLeaf() {
					k.load(&pl.bags[b.ID].leaf, lengths)
					rows(part, b.ID)
				}
			}
		}
		la := Compute(Dual, tree, lengths, ledger.New())
		for _, ddg := range la.ddgs {
			if ddg != nil {
				k.loadArcs(len(ddg.Nodes), ddg.Arcs)
				rows(2, ddg.Bag.ID)
			}
		}
		sumWith, sumAlone := 0, 0
		for part := range with {
			if alone[part] == 0 {
				t.Fatalf("%s: part %d popped nothing", c.name, part)
			}
			sumWith, sumAlone = sumWith+with[part], sumAlone+alone[part]
		}
		ratio := float64(sumWith) / float64(sumAlone)
		t.Logf("%s: pops with done rows / alone: primal leaves %d / %d, dual leaves %d / %d, dual DDGs %d / %d; %.2f in all",
			c.name, with[0], alone[0], with[1], alone[1], with[2], alone[2], ratio)
		if ratio > 0.6 {
			t.Errorf("%s: rows reusing the done rows pop %.2f× the heap items of rows alone, over 0.6×", c.name, ratio)
		}
	}
}

// closedThroughDetached is a 5-node graph whose negative cycle 0 → 1 → 2 →
// 0 (length −1) closes through a subtree detached earlier. From the seeds
// 0, 1, 4 in FIFO order: 0 lowers 1, 1 lowers 2 (the tree 0 → 1 → 2), then
// 4 lowers 0, detaching 1 and 2 (2 still waits on the worklist, skipped);
// 0 and 1 relax them back in, and the sixth relaxation, 2's arc to 0,
// closes the cycle, caught because 2 is in 0's subtree again. Node 3
// stands apart.
var closedThroughDetached = []DDGArc{
	{From: 0, To: 1, Len: -1},
	{From: 1, To: 2, Len: -1},
	{From: 4, To: 0, Len: -5},
	{From: 2, To: 0, Len: 1},
	{From: 3, To: 3, Len: 0},
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
			sk := csrOf(n, leaf)
			for loader, arcs := range [][]DDGArc{leaf, ddg} {
				if loader == 0 {
					k.load(sk, lengths)
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

// csrOf lays arcs out as a skeleton whose dart i is arc i.
func csrOf(n int, arcs []DDGArc) *skeleton {
	sk := &skeleton{start: make([]int32, n+1), to: make([]int32, len(arcs)), dart: make([]planar.Dart, len(arcs))}
	for _, a := range arcs {
		sk.start[a.From+1]++
	}
	for u := 0; u < n; u++ {
		sk.start[u+1] += sk.start[u]
	}
	next := append([]int32(nil), sk.start[:n]...)
	for i, a := range arcs {
		sk.to[next[a.From]], sk.dart[next[a.From]] = a.To, planar.Dart(i)
		next[a.From]++
	}
	return sk
}

func cloneSkeleton(sk *skeleton) *skeleton {
	return &skeleton{
		start: append([]int32(nil), sk.start...),
		to:    append([]int32(nil), sk.to...),
		dart:  append([]planar.Dart(nil), sk.dart...),
	}
}

// TestConcurrentPassesShareOnePlan runs two goroutines of feasibility
// probes, each with its own lengths, over one shared tree whose plan has
// derived neither the whole graph nor the internal bags' own graphs: both
// goroutines' first probes race to derive them, and every probe reads them
// and the leaves' skeletons, so under -race a derivation that is not
// guarded or any write through a skeleton — a kernel buffer aliasing one —
// is a reported race. Without -race a wrong verdict, or a skeleton that
// differs from a serially derived twin's, is the failure.
func TestConcurrentPassesShareOnePlan(t *testing.T) {
	g := planar.Grid(9, 9)
	tree := bdd.Build(g, 8, ledger.New())
	pl := mustPlan(t, tree, Dual)
	if pl.whole.start != nil || pl.own != nil {
		t.Fatal("the shared plan's whole graph or own graphs are already derived")
	}
	leaves := make(map[int]*skeleton)
	for _, b := range tree.Bags {
		if b.IsLeaf() {
			leaves[b.ID] = cloneSkeleton(pl.ownGraph(b.ID))
		}
	}
	// The serial verdicts run on a twin tree, so they derive nothing of the
	// shared plan.
	twin := bdd.Build(g, 8, ledger.New())
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
			ok, err := Feasible(ctx, Dual, twin, lens, ledger.New())
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
				ok, err := Feasible(ctx, Dual, tree, lens, ledger.New())
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
	if pl.whole.start == nil || pl.own == nil {
		t.Fatal("the probes did not derive the shared plan's whole graph and own graphs")
	}
	ref := mustPlan(t, twin, Dual)
	for _, b := range tree.Bags {
		got := cloneSkeleton(pl.ownGraph(b.ID))
		if b.IsLeaf() && !reflect.DeepEqual(got, leaves[b.ID]) {
			t.Fatalf("leaf %d: a probe changed its skeleton", b.ID)
		}
		if !reflect.DeepEqual(got, cloneSkeleton(ref.ownGraph(b.ID))) {
			t.Fatalf("bag %d: its own graph differs from the twin's", b.ID)
		}
	}
	if !reflect.DeepEqual(cloneSkeleton(pl.wholeGraph()), cloneSkeleton(ref.wholeGraph())) {
		t.Fatal("the plan's whole-graph skeleton differs from the twin's")
	}
}
