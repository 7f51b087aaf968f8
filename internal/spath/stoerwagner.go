package spath

// GlobalMinCut computes the global minimum cut of an undirected weighted
// graph. Edges are given as (u, v, w) triples with w >= 0; parallel edges are
// allowed (their weights add) and self-loops never cross a cut. It returns
// the cut weight and one side of the cut as a vertex set. n must be >= 2.
//
// Stoer–Wagner runs on what the Padberg–Rinaldi contraction test leaves of
// the graph. The test: with λ̂ the weighted degree of the lightest supernode,
// whose member set is a cut of weight λ̂ held from then on, every pair of
// supernodes joined by merged weight ≥ λ̂ is contracted — any cut separating
// them weighs at least λ̂, so no strictly lighter cut is lost. The test
// repeats until nothing contracts; a cut of the remainder then replaces the
// held one only if it is strictly lighter. The value is Stoer–Wagner's on
// the whole graph; where several cuts share it, the side may be another.
func GlobalMinCut(n int, us, vs []int, ws []int64) (int64, []bool) {
	parent := make([]int, n) // union-find over the vertices; roots are supernodes
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}

	best := Inf
	side := make([]bool, n)
	m := len(us)
	var (
		// A root's supernode index this round, and an index's root.
		id, root = make([]int, n), make([]int, n)
		// The edges between supernodes, by index; each supernode's arcs are
		// adjTo/adjW[start[a]:start[a+1]].
		cu, cv      = make([]int, 0, m), make([]int, 0, m)
		cw          = make([]int64, 0, m)
		start, next = make([]int, n+1), make([]int, n)
		adjTo       = make([]int, 2*m)
		adjW        = make([]int64, 2*m)
		// Per supernode: its weighted degree, and its merged weight to the
		// one being scanned (nonzero only at touched).
		deg, acc = make([]int64, n), make([]int64, n)
		touched  = make([]int, 0, n)
	)
	for {
		k := 0
		for v := 0; v < n; v++ {
			if find(v) == v {
				id[v], root[k] = k, v
				k++
			}
		}
		if k < 2 {
			return best, side
		}
		clear(deg[:k])
		cu, cv, cw = cu[:0], cv[:0], cw[:0]
		for i := range us {
			a, b := id[find(us[i])], id[find(vs[i])]
			if a == b {
				continue
			}
			cu, cv, cw = append(cu, a), append(cv, b), append(cw, ws[i])
			deg[a] += ws[i]
			deg[b] += ws[i]
		}
		light := 0
		for a := 1; a < k; a++ {
			if deg[a] < deg[light] {
				light = a
			}
		}
		if deg[light] < best {
			best = deg[light]
			for v := range side {
				side[v] = id[find(v)] == light
			}
		}
		if best == 0 {
			return best, side // weights are non-negative: nothing is lighter
		}

		// Merged weights: each supernode's arcs, summed per neighbour.
		clear(start[:k+1])
		for i := range cu {
			start[cu[i]+1]++
			start[cv[i]+1]++
		}
		for a := 0; a < k; a++ {
			start[a+1] += start[a]
		}
		copy(next, start[:k])
		for i := range cu {
			a, b := cu[i], cv[i]
			adjTo[next[a]], adjW[next[a]] = b, cw[i]
			adjTo[next[b]], adjW[next[b]] = a, cw[i]
			next[a]++
			next[b]++
		}
		contracted := false
		for a := 0; a < k; a++ {
			for i := start[a]; i < start[a+1]; i++ {
				if acc[adjTo[i]] == 0 && adjW[i] > 0 {
					touched = append(touched, adjTo[i])
				}
				acc[adjTo[i]] += adjW[i]
			}
			for _, b := range touched {
				if b > a && acc[b] >= best {
					if ra, rb := find(root[a]), find(root[b]); ra != rb {
						parent[ra] = rb
					}
					contracted = true
				}
				acc[b] = 0
			}
			touched = touched[:0]
		}
		if contracted {
			continue
		}

		// Nothing contracts: the remainder's own minimum cut.
		if w, rem := stoerWagner(k, cu, cv, cw); w < best {
			best = w
			for v := range side {
				side[v] = rem[id[find(v)]]
			}
		}
		return best, side
	}
}

// stoerWagner is GlobalMinCut without the contraction test: V−1 maximum
// adjacency phases over the whole graph.
//
// The arcs are one CSR, node u's at arcTo/arcW[start[u]:start[u+1]] in edge
// order. A supernode is a chain of the original nodes merged into it, linked
// through next from its own node to tail: its members, and, run after run,
// its arcs in merge order. Merging last into prev appends last's chain to
// prev's.
func stoerWagner(n int, us, vs []int, ws []int64) (int64, []bool) {
	start := make([]int, n+1)
	for i := range us {
		if us[i] != vs[i] { // self-loops never cross a cut
			start[us[i]+1]++
			start[vs[i]+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	arcTo, arcW := make([]int, start[n]), make([]int64, start[n])
	// The fill pass uses start[u] as u's cursor, so afterwards start[u]
	// holds what start[u+1] held; one shift restores it.
	for i := range us {
		if u, v := us[i], vs[i]; u != v {
			arcTo[start[u]], arcW[start[u]] = v, ws[i]
			start[u]++
			arcTo[start[v]], arcW[start[v]] = u, ws[i]
			start[v]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0

	next, tail := make([]int, n), make([]int, n)
	alive := make([]bool, n)
	for v := range next {
		next[v], tail[v], alive[v] = -1, v, true
	}
	aliveCnt := n

	best := Inf
	side := make([]bool, n)

	w := make([]int64, n)
	inA := make([]bool, n)
	var q pq // one heap, emptied at the start of every phase
	for aliveCnt > 1 {
		// Minimum-cut phase: maximum adjacency order via a heap.
		for v := 0; v < n; v++ {
			w[v] = 0
			inA[v] = false
		}
		var first int
		for v := 0; v < n; v++ {
			if alive[v] {
				first = v
				break
			}
		}
		q = append(q[:0], pqItem{v: first, d: 0})
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
			for x := v; x >= 0; x = next[x] {
				for i := start[x]; i < start[x+1]; i++ {
					if to := arcTo[i]; alive[to] && !inA[to] {
						w[to] += arcW[i]
						q.push(pqItem{v: to, d: -w[to]})
					}
				}
			}
		}
		// Cut-of-the-phase: last's members alone vs the rest.
		if w[last] < best {
			best = w[last]
			clear(side)
			for x := last; x >= 0; x = next[x] {
				side[x] = true
			}
		}
		// Merge last into prev: append last's chain to prev's and redirect
		// every arc pointing at last. Arcs between prev and last become
		// self-loops, which the phase loop skips (inA check).
		if prev >= 0 {
			next[tail[prev]], tail[prev] = last, tail[last]
			for i, to := range arcTo {
				if to == last {
					arcTo[i] = prev
				}
			}
		}
		alive[last] = false
		aliveCnt--
	}
	return best, side
}
