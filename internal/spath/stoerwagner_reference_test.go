package spath

import (
	"fmt"
	"slices"
	"testing"

	"planarflow/internal/planar"
)

// The Stoer–Wagner stoerWagner replaced, kept verbatim as the oracle of
// TestStoerWagnerMatchesAppendReference: a list of arcs per node grown by
// append, a member list per supernode, and a merge that appends last's lists
// to prev's.
func refStoerWagner(n int, us, vs []int, ws []int64) (int64, []bool) {
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

// TestStoerWagnerMatchesAppendReference: the CSR Stoer–Wagner keeps every
// node's arcs in the reference's order and merges in its order, so its
// maximum-adjacency order, hence its value and its side, equal the
// reference's exactly — on random multigraphs with self-loops, parallel
// edges, ties, zero weights and disconnected parts, and on the duals of
// cold_build graphs.
func TestStoerWagnerMatchesAppendReference(t *testing.T) {
	check := func(name string, n int, us, vs []int, ws []int64) {
		t.Helper()
		got, gotSide := stoerWagner(n, us, vs, ws)
		want, wantSide := refStoerWagner(n, us, vs, ws)
		if got != want || !slices.Equal(gotSide, wantSide) {
			t.Fatalf("%s: cut %d side %v, the reference's %d side %v", name, got, gotSide, want, wantSide)
		}
	}
	rng := planar.NewRand(47)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.IntN(25)
		parts := 1 + rng.IntN(2)*rng.IntN(3)
		maxW := []int64{1, 2, 10}[rng.IntN(3)]
		var us, vs []int
		var ws []int64
		for i, m := 0, rng.IntN(4*n); i < m; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u%parts == v%parts {
				us, vs, ws = append(us, u), append(vs, v), append(ws, rng.Int64N(maxW+1))
			}
		}
		check(fmt.Sprintf("random %d", trial), n, us, vs, ws)
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, g := range []*planar.Graph{
			planar.WithRandomWeights(planar.BoustrophedonGrid(12, 12), planar.NewRand(seed), 1, 9, 1, 10),
			planar.WithRandomWeights(planar.StackedTriangulation(100, planar.NewRand(seed)), planar.NewRand(seed), 1, 9, 1, 10),
		} {
			fd := g.Faces()
			var us, vs []int
			var ws []int64
			for e := 0; e < g.M(); e++ {
				us, vs = append(us, fd.FaceOf(planar.ForwardDart(e))), append(vs, fd.FaceOf(planar.BackwardDart(e)))
				ws = append(ws, g.Edge(e).Weight)
			}
			check(fmt.Sprintf("dual, seed %d, %d faces", seed, fd.NumFaces()), fd.NumFaces(), us, vs, ws)
		}
	}
}
