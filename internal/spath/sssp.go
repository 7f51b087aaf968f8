package spath

import "container/heap"

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

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra computes shortest paths from source; all arc lengths must be
// non-negative.
func Dijkstra(g *Digraph, source int) *SSSPResult {
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
	q := &pq{{v: source, d: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.d > res.Dist[it.v] {
			continue
		}
		for _, a := range g.Out(it.v) {
			if a.Len >= Inf {
				continue
			}
			nd := it.d + a.Len
			if nd < res.Dist[a.To] {
				res.Dist[a.To] = nd
				res.ParentArcID[a.To] = a.ID
				res.Parent[a.To] = it.v
				heap.Push(q, pqItem{v: a.To, d: nd})
			}
		}
	}
	return res
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
