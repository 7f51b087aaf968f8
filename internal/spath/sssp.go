package spath

import "slices"

// SSSPResult holds single-source distances and a shortest-path tree.
type SSSPResult struct {
	Source      int
	Dist        []int64 // Inf if unreachable
	ParentArcID []int   // caller arc ID entering v on the tree (-1 at source/unreachable)
	Parent      []int   // tree parent vertex (-1 at source/unreachable)
}

type pqItem struct {
	v int
	d int64
}

// pq is a binary min-heap of pqItems by d. push and pop sift exactly as
// container/heap's up and down do — same comparisons, same swaps — so ties
// leave in the order they always did (Dijkstra's tree and Stoer–Wagner's cut
// side depend on it); what differs is that no item is boxed on the way in.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	*q = h
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].d < h[j].d {
			j = r
		}
		if h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// Adjacency is a directed graph as Search reads it: its nodes and each
// node's out-arcs, in the order ties are to break in. Search reads Out's
// slice before it calls Out again, so Out may build it in a buffer of its
// own.
type Adjacency interface {
	N() int
	Out(v int) []Arc
}

// Search is Dijkstra's result arrays and heap, kept from one run to the
// next: a caller that searches many times allocates them once.
type Search struct {
	Dist        []int64 // Inf if unreachable
	ParentArcID []int   // ID of the arc entering v on the tree (-1 at source/unreachable)
	Parent      []int   // tree parent vertex (-1 at source/unreachable)
	q           pq
}

// Run computes shortest paths from source over g; all arc lengths must be
// non-negative, and an arc of length Inf is no arc.
func (s *Search) Run(g Adjacency, source int) {
	n := g.N()
	s.Dist = slices.Grow(s.Dist[:0], n)[:n]
	s.ParentArcID = slices.Grow(s.ParentArcID[:0], n)[:n]
	s.Parent = slices.Grow(s.Parent[:0], n)[:n]
	dist, parentArc, parent := s.Dist, s.ParentArcID, s.Parent
	for v := range dist {
		dist[v], parentArc[v], parent[v] = Inf, -1, -1
	}
	dist[source] = 0
	q := append(slices.Grow(s.q[:0], n), pqItem{v: source, d: 0})
	for len(q) > 0 {
		it := q.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range g.Out(it.v) {
			if a.Len >= Inf {
				continue
			}
			nd := it.d + a.Len
			if nd < dist[a.To] {
				dist[a.To] = nd
				parentArc[a.To] = a.ID
				parent[a.To] = it.v
				q.push(pqItem{v: a.To, d: nd})
			}
		}
	}
	s.q = q
}

// Dijkstra computes shortest paths from source; all arc lengths must be
// non-negative.
func Dijkstra(g *Digraph, source int) *SSSPResult {
	var s Search
	s.Run(g, source)
	return &SSSPResult{Source: source, Dist: s.Dist, ParentArcID: s.ParentArcID, Parent: s.Parent}
}

// BellmanFord computes shortest paths from source with arbitrary (possibly
// negative) arc lengths. It returns (result, false) if a negative cycle is
// reachable from source.
func BellmanFord(g *Digraph, source int) (*SSSPResult, bool) {
	n := g.N()
	res := &SSSPResult{
		Source:      source,
		Dist:        make([]int64, n),
		ParentArcID: make([]int, n),
		Parent:      make([]int, n),
	}
	for v := range res.Dist {
		res.Dist[v] = Inf
		res.ParentArcID[v] = -1
		res.Parent[v] = -1
	}
	res.Dist[source] = 0
	for i := 0; i < n; i++ {
		changed := false
		for v := 0; v < n; v++ {
			dv := res.Dist[v]
			if dv >= Inf {
				continue
			}
			for _, a := range g.Out(v) {
				if a.Len >= Inf {
					continue
				}
				if nd := dv + a.Len; nd < res.Dist[a.To] {
					res.Dist[a.To] = nd
					res.ParentArcID[a.To] = a.ID
					res.Parent[a.To] = v
					changed = true
				}
			}
		}
		if !changed {
			return res, true
		}
	}
	return res, false
}

// APSPBellmanFord runs BellmanFord from every vertex; it returns false if the
// graph contains a negative cycle (reachable from any vertex). A test
// baseline for small graphs (leaf bags, DDGs of size Õ(D)).
func APSPBellmanFord(g *Digraph) ([][]int64, bool) {
	n := g.N()
	all := make([][]int64, n)
	for s := 0; s < n; s++ {
		res, ok := BellmanFord(g, s)
		if !ok {
			return nil, false
		}
		all[s] = res.Dist
	}
	return all, true
}
