package spath

// This file holds brute-force comparators used only by tests and the
// experiment harness to validate the distributed algorithms.

// UndirectedGirth returns the minimum total weight of a simple cycle in an
// undirected weighted graph, or Inf if the graph is acyclic. Edges are (u, v,
// w) triples with w >= 0. Computed as min over edges e of w(e) +
// dist_{G-e}(u, v).
func UndirectedGirth(n int, us, vs []int, ws []int64) int64 {
	best := Inf
	for skip := range us {
		if us[skip] == vs[skip] {
			// Self-loop: a cycle by itself.
			if ws[skip] < best {
				best = ws[skip]
			}
			continue
		}
		g := NewDigraph(n)
		for i := range us {
			if i == skip {
				continue
			}
			g.AddArc(us[i], vs[i], ws[i], i)
			g.AddArc(vs[i], us[i], ws[i], i)
		}
		d := Dijkstra(g, us[skip]).Dist[vs[skip]]
		if d < Inf && d+ws[skip] < best {
			best = d + ws[skip]
		}
	}
	return best
}

// DirectedMinCycle returns the minimum total length of a directed cycle in a
// digraph with non-negative arc lengths (Inf if acyclic): min over arcs
// a=(u,v) of len(a) + dist(v, u).
func DirectedMinCycle(g *Digraph) int64 {
	best := Inf
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			if a.Len >= Inf {
				continue
			}
			if a.To == u {
				if a.Len < best {
					best = a.Len
				}
				continue
			}
			d := Dijkstra(g, a.To).Dist[u]
			if d < Inf && d+a.Len < best {
				best = d + a.Len
			}
		}
	}
	return best
}

// DirectedGlobalMinCut returns the minimum, over bisections (S, V\S) with
// both sides non-empty, of the total weight of arcs leaving S, for a directed
// weighted graph given as arc triples. It fixes vertex 0 and computes
// min(min_v maxflow(0->v), min_v maxflow(v->0)).
func DirectedGlobalMinCut(n int, us, vs []int, ws []int64) int64 {
	best := Inf
	run := func(s, t int) {
		fn := NewFlowNetwork(n)
		for i := range us {
			if us[i] != vs[i] {
				fn.AddEdge(us[i], vs[i], ws[i], i)
			}
		}
		if f := fn.MaxFlow(s, t); f < best {
			best = f
		}
	}
	for v := 1; v < n; v++ {
		run(0, v)
		run(v, 0)
	}
	return best
}

// CutWeightDirected sums the weights of arcs leaving side (side[u] && !side[v]).
func CutWeightDirected(us, vs []int, ws []int64, side []bool) int64 {
	var s int64
	for i := range us {
		if side[us[i]] && !side[vs[i]] {
			s += ws[i]
		}
	}
	return s
}
