package spath

import (
	"container/heap"
	"math/rand"
	"testing"
)

// Flow returns the flow pushed on forward arc a: what its residual twin,
// created with capacity 0, has gained.
func (fn *FlowNetwork) Flow(a int) int64 { return fn.cap[a^1] }

// MinCutSide returns, after MaxFlow(s, t) has run, the set of vertices
// reachable from s in the residual network (the s-side of a minimum cut).
func (fn *FlowNetwork) MinCutSide(s int) []bool {
	side := make([]bool, fn.n)
	stack := []int{s}
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range fn.next[v] {
			u := int(fn.head[a])
			if fn.cap[a] > 0 && !side[u] {
				side[u] = true
				stack = append(stack, u)
			}
		}
	}
	return side
}

// CutWeightUndirected sums the weights of edges crossing side in either
// direction.
func CutWeightUndirected(us, vs []int, ws []int64, side []bool) int64 {
	var s int64
	for i := range us {
		if side[us[i]] != side[vs[i]] {
			s += ws[i]
		}
	}
	return s
}

func TestDijkstraSmall(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1, 5, 0)
	g.AddArc(0, 2, 2, 1)
	g.AddArc(2, 1, 1, 2)
	g.AddArc(1, 3, 1, 3)
	g.AddArc(2, 3, 10, 4)
	res := Dijkstra(g, 0)
	want := []int64{0, 3, 2, 4}
	for v, w := range want {
		if res.Dist[v] != w {
			t.Fatalf("dist[%d]=%d want %d", v, res.Dist[v], w)
		}
	}
	if res.Parent[1] != 2 || res.ParentArcID[1] != 2 {
		t.Fatal("parent pointers wrong")
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewDigraph(3)
	g.AddArc(0, 1, 1, 0)
	res := Dijkstra(g, 0)
	if res.Dist[2] != Inf {
		t.Fatal("vertex 2 should be unreachable")
	}
}

func TestBellmanFordNegativeEdges(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1, 4, 0)
	g.AddArc(0, 2, 6, 1)
	g.AddArc(2, 1, -5, 2)
	g.AddArc(1, 3, 2, 3)
	res, ok := BellmanFord(g, 0)
	if !ok {
		t.Fatal("no negative cycle expected")
	}
	want := []int64{0, 1, 6, 3}
	for v, w := range want {
		if res.Dist[v] != w {
			t.Fatalf("dist[%d]=%d want %d", v, res.Dist[v], w)
		}
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	g := NewDigraph(3)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(1, 2, -3, 1)
	g.AddArc(2, 1, 1, 2)
	if _, ok := BellmanFord(g, 0); ok {
		t.Fatal("negative cycle not detected")
	}
}

func TestBellmanFordMatchesDijkstraRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		g := NewDigraph(n)
		m := n + rng.Intn(3*n)
		for i := 0; i < m; i++ {
			g.AddArc(rng.Intn(n), rng.Intn(n), rng.Int63n(100), i)
		}
		d1 := Dijkstra(g, 0)
		d2, ok := BellmanFord(g, 0)
		if !ok {
			t.Fatal("unexpected negative cycle with non-negative weights")
		}
		for v := 0; v < n; v++ {
			if d1.Dist[v] != d2.Dist[v] {
				t.Fatalf("trial %d: dist[%d] dijkstra=%d bf=%d", trial, v, d1.Dist[v], d2.Dist[v])
			}
		}
	}
}

func TestDinicSmall(t *testing.T) {
	// Classic 6-vertex example with max flow 23.
	fn := NewFlowNetwork(6)
	fn.AddEdge(0, 1, 16, 0)
	fn.AddEdge(0, 2, 13, 1)
	fn.AddEdge(1, 2, 10, 2)
	fn.AddEdge(2, 1, 4, 3)
	fn.AddEdge(1, 3, 12, 4)
	fn.AddEdge(3, 2, 9, 5)
	fn.AddEdge(2, 4, 14, 6)
	fn.AddEdge(4, 3, 7, 7)
	fn.AddEdge(3, 5, 20, 8)
	fn.AddEdge(4, 5, 4, 9)
	if f := fn.MaxFlow(0, 5); f != 23 {
		t.Fatalf("maxflow=%d want 23", f)
	}
	side := fn.MinCutSide(0)
	if !side[0] || side[5] {
		t.Fatal("cut side wrong")
	}
}

func TestDinicDisconnected(t *testing.T) {
	fn := NewFlowNetwork(4)
	fn.AddEdge(0, 1, 5, 0)
	fn.AddEdge(2, 3, 5, 1)
	if f := fn.MaxFlow(0, 3); f != 0 {
		t.Fatalf("maxflow=%d want 0", f)
	}
}

func TestDinicFlowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(20)
		fn := NewFlowNetwork(n)
		var arcs []int
		type uv struct{ u, v int }
		ends := []uv{}
		for i := 0; i < 4*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			arcs = append(arcs, fn.AddEdge(u, v, 1+rng.Int63n(20), i))
			ends = append(ends, uv{u, v})
		}
		s, tt := 0, n-1
		val := fn.MaxFlow(s, tt)
		net := make([]int64, n)
		for i, a := range arcs {
			f := fn.Flow(a)
			if f < 0 {
				t.Fatal("negative flow")
			}
			net[ends[i].u] -= f
			net[ends[i].v] += f
		}
		for v := 0; v < n; v++ {
			switch v {
			case s:
				if net[v] != -val {
					t.Fatalf("source imbalance %d vs value %d", net[v], val)
				}
			case tt:
				if net[v] != val {
					t.Fatalf("sink imbalance %d vs value %d", net[v], val)
				}
			default:
				if net[v] != 0 {
					t.Fatalf("conservation broken at %d", v)
				}
			}
		}
	}
}

func TestStoerWagnerSmall(t *testing.T) {
	// A 4-cycle with one light edge: min cut isolates across the two
	// lightest edges.
	us := []int{0, 1, 2, 3}
	vs := []int{1, 2, 3, 0}
	ws := []int64{1, 10, 2, 10}
	w, side := GlobalMinCut(4, us, vs, ws)
	if w != 3 {
		t.Fatalf("min cut=%d want 3", w)
	}
	if got := CutWeightUndirected(us, vs, ws, side); got != 3 {
		t.Fatalf("side weight=%d want 3", got)
	}
}

func TestStoerWagnerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		var us, vs []int
		var ws []int64
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) > 0 {
					us = append(us, u)
					vs = append(vs, v)
					ws = append(ws, rng.Int63n(20))
				}
			}
		}
		got, side := GlobalMinCut(n, us, vs, ws)
		// Brute force over all bisections.
		want := Inf
		for mask := 1; mask < (1<<n)-1; mask++ {
			s := make([]bool, n)
			for v := 0; v < n; v++ {
				s[v] = mask&(1<<v) != 0
			}
			if w := CutWeightUndirected(us, vs, ws, s); w < want {
				want = w
			}
		}
		if got != want {
			t.Fatalf("trial %d n=%d: stoer-wagner=%d brute=%d", trial, n, got, want)
		}
		if got < Inf {
			if w := CutWeightUndirected(us, vs, ws, side); w != got {
				t.Fatalf("trial %d: returned side weight %d != %d", trial, w, got)
			}
			any, all := false, true
			for v := 0; v < n; v++ {
				if side[v] {
					any = true
				} else {
					all = false
				}
			}
			if !any || all {
				t.Fatalf("trial %d: degenerate side", trial)
			}
		}
	}
}

func TestUndirectedGirthSmall(t *testing.T) {
	// Triangle of weight 6 plus a pendant.
	us := []int{0, 1, 2, 0}
	vs := []int{1, 2, 0, 3}
	ws := []int64{1, 2, 3, 100}
	if g := UndirectedGirth(4, us, vs, ws); g != 6 {
		t.Fatalf("girth=%d want 6", g)
	}
}

func TestUndirectedGirthAcyclic(t *testing.T) {
	us := []int{0, 1}
	vs := []int{1, 2}
	ws := []int64{1, 1}
	if g := UndirectedGirth(3, us, vs, ws); g != Inf {
		t.Fatalf("girth of a tree should be Inf, got %d", g)
	}
}

func TestDirectedMinCycle(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(2, 0, 1, 2)
	g.AddArc(2, 3, 1, 3)
	g.AddArc(3, 2, 5, 4)
	if c := DirectedMinCycle(g); c != 3 {
		t.Fatalf("min cycle=%d want 3", c)
	}
}

func TestDirectedGlobalMinCutSmall(t *testing.T) {
	// Strongly connected 3-cycle with weights 4,5,6: cutting any single
	// vertex off severs exactly one forward arc; the min is 4.
	us := []int{0, 1, 2}
	vs := []int{1, 2, 0}
	ws := []int64{4, 5, 6}
	if c := DirectedGlobalMinCut(3, us, vs, ws); c != 4 {
		t.Fatalf("global cut=%d want 4", c)
	}
}

func TestDirectedGlobalMinCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		var us, vs []int
		var ws []int64
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			us = append(us, u)
			vs = append(vs, v)
			ws = append(ws, rng.Int63n(15))
		}
		got := DirectedGlobalMinCut(n, us, vs, ws)
		want := Inf
		for mask := 1; mask < (1<<n)-1; mask++ {
			s := make([]bool, n)
			for v := 0; v < n; v++ {
				s[v] = mask&(1<<v) != 0
			}
			if w := CutWeightDirected(us, vs, ws, s); w < want {
				want = w
			}
		}
		if got != want {
			t.Fatalf("trial %d: got %d want %d", trial, got, want)
		}
	}
}

func TestAPSPBellmanFord(t *testing.T) {
	g := NewDigraph(3)
	g.AddArc(0, 1, 2, 0)
	g.AddArc(1, 2, -1, 1)
	g.AddArc(0, 2, 5, 2)
	all, ok := APSPBellmanFord(g)
	if !ok {
		t.Fatal("unexpected negative cycle")
	}
	if all[0][2] != 1 {
		t.Fatalf("apsp[0][2]=%d want 1", all[0][2])
	}
}

// boxedPQ is pq behind container/heap, as Dijkstra and GlobalMinCut used to
// drive it.
type boxedPQ []pqItem

func (q boxedPQ) Len() int            { return len(q) }
func (q boxedPQ) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q boxedPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *boxedPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *boxedPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestPQPopsLikeContainerHeap: on keys drawn from a handful of values, so
// that nearly every comparison is a tie, pq hands items back in exactly the
// order container/heap does — the order Dijkstra's parent arcs and
// Stoer–Wagner's cut side were pinned under.
func TestPQPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q pq
	ref := &boxedPQ{}
	for step := 0; step < 20000; step++ {
		if len(q) != ref.Len() {
			t.Fatalf("step %d: %d items, reference holds %d", step, len(q), ref.Len())
		}
		if len(q) > 0 && rng.Intn(5) < 2 {
			if got, want := q.pop(), heap.Pop(ref).(pqItem); got != want {
				t.Fatalf("step %d: popped %+v, container/heap pops %+v", step, got, want)
			}
			continue
		}
		it := pqItem{v: step, d: int64(rng.Intn(4))}
		q.push(it)
		heap.Push(ref, it)
	}
}
