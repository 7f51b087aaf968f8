package spath

// GlobalMinCut computes the global minimum cut of an undirected weighted
// graph (Stoer–Wagner). Edges are given as (u, v, w) triples with w >= 0;
// parallel edges are allowed (their weights add). It returns the cut weight
// and one side of the cut as a vertex set. n must be >= 2.
func GlobalMinCut(n int, us, vs []int, ws []int64) (int64, []bool) {
	type swArc struct {
		to int
		w  int64
	}
	adj := make([][]swArc, n)
	for i := range us {
		if us[i] == vs[i] {
			continue // self-loops never cross a cut
		}
		adj[us[i]] = append(adj[us[i]], swArc{to: vs[i], w: ws[i]})
		adj[vs[i]] = append(adj[vs[i]], swArc{to: us[i], w: ws[i]})
	}

	// members[v] = original vertices merged into supernode v.
	members := make([][]int, n)
	for v := range members {
		members[v] = []int{v}
	}
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	aliveCnt := n

	best := Inf
	var bestSide []int

	w := make([]int64, n)
	inA := make([]bool, n)
	var q pq // one heap, emptied at the start of every phase
	for aliveCnt > 1 {
		// Minimum-cut phase: maximum adjacency order via a heap.
		for v := 0; v < n; v++ {
			w[v] = 0
			inA[v] = false
		}
		var start int
		for v := 0; v < n; v++ {
			if alive[v] {
				start = v
				break
			}
		}
		q = append(q[:0], pqItem{v: start, d: 0})
		prev, last := -1, -1
		added := 0
		for added < aliveCnt {
			v := -1
			for len(q) > 0 {
				it := q.pop()
				if alive[it.v] && !inA[it.v] && -it.d == w[it.v] {
					v = it.v
					break
				}
			}
			if v == -1 {
				// Disconnected remainder: pick any alive vertex not yet in A
				// (its cut-of-the-phase weight is 0).
				for u := 0; u < n; u++ {
					if alive[u] && !inA[u] {
						v = u
						break
					}
				}
			}
			inA[v] = true
			added++
			prev, last = last, v
			for _, a := range adj[v] {
				if alive[a.to] && !inA[a.to] {
					w[a.to] += a.w
					q.push(pqItem{v: a.to, d: -w[a.to]})
				}
			}
		}
		// Cut-of-the-phase: last vertex alone vs the rest.
		if w[last] < best {
			best = w[last]
			bestSide = append([]int(nil), members[last]...)
		}
		// Merge last into prev: move last's arcs to prev and redirect all
		// arcs pointing at last. Arcs between prev and last become
		// self-loops, which the phase loop skips (inA check).
		if prev >= 0 {
			members[prev] = append(members[prev], members[last]...)
			adj[prev] = append(adj[prev], adj[last]...)
			adj[last] = nil
			for v := 0; v < n; v++ {
				if !alive[v] || v == last {
					continue
				}
				for i := range adj[v] {
					if adj[v][i].to == last {
						adj[v][i].to = prev
					}
				}
			}
		}
		alive[last] = false
		aliveCnt--
	}

	side := make([]bool, n)
	for _, v := range bestSide {
		side[v] = true
	}
	return best, side
}
