// Package separator finds balanced cycle separators of embedded planar
// subgraphs ("bags"), matching the output shape of the distributed separator
// of Ghaffari–Parter [17] that the BDD of Li–Parter [27] consumes: a cycle
// S_X consisting of two BFS-tree paths closed by one edge e_X which is
// either a real edge or a *virtual* edge absent from the graph (the source
// of the paper's critical-face / face-part machinery, §5.1).
//
// The construction is the classic Lipton–Tarjan fundamental-cycle argument
// made concrete: triangulate every face of the bag with virtual chords,
// observe that the duals of non-tree edges form a spanning tree of the
// triangulated dual (the interdigitating tree), and pick the non-tree edge
// whose fundamental cycle best balances the dart weight of the two regions.
// Removing that edge's dual-tree arc yields the two regions directly, giving
// a side assignment for every dart of the bag.
package separator

import (
	"planarflow/internal/planar"
)

// EX describes the cycle-closing edge; when Real is false the edge is
// virtual: it exists only in the triangulation, splitting the face of the
// bag it is embedded in (the paper's critical face).
type EX struct {
	Real bool
	Edge int // primal edge id when Real
	U, V int // endpoints
}

// Result is a computed cycle separator for one bag.
type Result struct {
	Found bool
	EX    EX

	// CycleVertices lists the separator path u .. lca .. v in path order
	// (the full cycle closes with EX).
	CycleVertices []int
	// CycleEdges are the real edges of the cycle: the tree-path edges plus
	// EX.Edge when EX is real.
	CycleEdges []int

	// Side assigns every dart of a bag edge to region 0 or 1 (-1 for darts
	// of edges outside the bag). The two darts of a cycle edge lie in
	// different regions; every other bag edge has both darts on one side.
	// It is the Scratch's buffer and holds only until the next
	// FindCycleSeparator call on that Scratch.
	Side []int8

	InsideWeight int     // darts in region 1
	TotalWeight  int     // darts in the bag
	Balance      float64 // max-region dart fraction
	TreeDepth    int     // BFS-tree depth of the bag (for round accounting)
}

// Scratch is the working memory of FindCycleSeparator, reused across the
// calls on one graph (the BDD builder runs one per bag). The zero value is
// ready for use; a Scratch serves one call at a time.
type Scratch struct {
	treeEdge []bool  // by edge; all false between calls
	triOf    []int32 // by dart; -1 outside the last call's bag
	side     []int8  // by dart; the last call's Result.Side
	last     *planar.SubFaces

	// The bag-sized arrays of one call, by triangle unless noted, grown
	// only when a call needs more than an earlier one did.
	triW                  []int
	dualEdges             []dualEdge
	triOfOrbitStart       []int // by orbit
	adjStart, adj         []int32
	parentEdge, parentTri []int32
	order                 []int32
	sub                   []int
	triSide               []int8
}

// dualEdge is an edge of the triangulated bag's dual between triangles t1
// and t2; its primal candidate is a real edge (edge >= 0) or a virtual
// chord (edge == -1), with endpoints u, v.
type dualEdge struct {
	t1, t2 int
	edge   int
	u, v   int
}

// grow returns *buf resized to n, reallocating it only when it is too
// small; the contents are not cleared.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// reset sizes the buffers for g and clears what the last call wrote.
func (sc *Scratch) reset(g *planar.Graph) {
	if len(sc.side) != g.NumDarts() || len(sc.treeEdge) != g.M() {
		sc.treeEdge = make([]bool, g.M())
		sc.triOf = make([]int32, g.NumDarts())
		sc.side = make([]int8, g.NumDarts())
		for d := range sc.side {
			sc.triOf[d], sc.side[d] = -1, -1
		}
	} else if sc.last != nil {
		for f := 0; f < sc.last.NumFaces(); f++ {
			for _, d := range sc.last.Cycle(f) {
				sc.triOf[d], sc.side[d] = -1, -1
			}
		}
	}
	sc.last = nil
}

// FindCycleSeparator computes a balanced cycle separator of the connected
// subgraph given by edgeIn; sf must be the subgraph's face structure and
// bfs its BFS tree from an endpoint of a kept edge (the cycle is closed in
// that tree). It returns Found=false when the bag admits no
// non-degenerate fundamental cycle (e.g. trees), in which case the caller
// treats the bag as a leaf. The result's Side lives in sc and holds until
// the next call with sc; a nil sc gives the result buffers of its own.
func FindCycleSeparator(g *planar.Graph, edgeIn []bool, sf *planar.SubFaces, bfs *planar.BFSResult, sc *Scratch) *Result {
	if sc == nil {
		sc = new(Scratch)
	}
	sc.reset(g)
	sc.last = sf
	res := &Result{Side: sc.side, TreeDepth: bfs.Depth}
	treeEdge, triOf := sc.treeEdge, sc.triOf
	for _, p := range bfs.Parent {
		if p != planar.NoDart {
			treeEdge[planar.EdgeOf(p)] = true
		}
	}

	// ---- Triangulate orbits and assign darts to triangles. ----
	// An orbit of k > 2 darts is k-2 triangles joined by k-3 chords; the
	// rest of the dual edges are the bag's real non-tree edges.
	// Appends stay within these capacities, so the arrays stay sc's.
	tris, chords := 0, 0
	for f := 0; f < sf.NumFaces(); f++ {
		k := len(sf.Cycle(f))
		tris += max(1, k-2)
		chords += max(0, k-3)
	}
	numTri := 0
	triW := grow(&sc.triW, tris)[:0]
	dualEdges := grow(&sc.dualEdges, chords+g.M())[:0]
	rootOrbit, rootOrbitLen := 0, -1
	triOfOrbitStart := grow(&sc.triOfOrbitStart, sf.NumFaces())

	for f := 0; f < sf.NumFaces(); f++ {
		cyc := sf.Cycle(f)
		k := len(cyc)
		if k > rootOrbitLen {
			rootOrbit, rootOrbitLen = f, k
		}
		triOfOrbitStart[f] = numTri
		if k <= 2 {
			// Degenerate orbit (single edge walked twice): one node.
			t := numTri
			numTri++
			triW = append(triW, k)
			for _, d := range cyc {
				triOf[d] = int32(t)
			}
			continue
		}
		// Fan triangulation from corner 0: triangles t_1..t_{k-2}; dart
		// cyc[i] -> t_i, with cyc[0] -> t_1 and cyc[k-1] -> t_{k-2}.
		base := numTri
		numTri += k - 2
		for i := 0; i < k-2; i++ {
			triW = append(triW, 1)
		}
		c0 := g.Tail(cyc[0])
		triOf[cyc[0]] = int32(base)
		triW[base]++
		triOf[cyc[k-1]] = int32(base + k - 3)
		triW[base+k-3]++
		for i := 1; i <= k-2; i++ {
			triOf[cyc[i]] = int32(base + i - 1)
		}
		// Chords (c0, tail(cyc[i])) between consecutive fan triangles.
		for i := 2; i <= k-2; i++ {
			dualEdges = append(dualEdges, dualEdge{
				t1: base + i - 2, t2: base + i - 1,
				edge: -1, u: c0, v: g.Tail(cyc[i]),
			})
		}
	}

	// Real non-tree bag edges are dual-tree edges between the triangles of
	// their two darts.
	for e := 0; e < g.M(); e++ {
		if !edgeIn[e] || treeEdge[e] {
			continue
		}
		t1 := int(triOf[planar.ForwardDart(e)])
		t2 := int(triOf[planar.BackwardDart(e)])
		if t1 == t2 {
			continue // degenerate (both darts in one triangle): dual self-loop
		}
		dualEdges = append(dualEdges, dualEdge{
			t1: t1, t2: t2, edge: e, u: g.Edge(e).U, v: g.Edge(e).V,
		})
	}
	for _, p := range bfs.Parent {
		if p != planar.NoDart {
			treeEdge[planar.EdgeOf(p)] = false
		}
	}

	// ---- Interdigitating tree: BFS spanning tree of the dual edges. ----
	// adj[adjStart[t]:adjStart[t+1]] lists t's dual edges in index order.
	adjStart := grow(&sc.adjStart, numTri+1)
	clear(adjStart)
	for _, de := range dualEdges {
		adjStart[de.t1+1]++
		adjStart[de.t2+1]++
	}
	for t := 0; t < numTri; t++ {
		adjStart[t+1] += adjStart[t]
	}
	// The fill uses adjStart[t] as t's cursor, so afterwards adjStart[t]
	// holds what adjStart[t+1] held, and one shift restores it.
	adj := grow(&sc.adj, int(adjStart[numTri])) // indices into dualEdges
	for i, de := range dualEdges {
		adj[adjStart[de.t1]] = int32(i)
		adjStart[de.t1]++
		adj[adjStart[de.t2]] = int32(i)
		adjStart[de.t2]++
	}
	copy(adjStart[1:], adjStart[:numTri])
	adjStart[0] = 0
	rootTri := triOfOrbitStart[rootOrbit]
	parentEdge := grow(&sc.parentEdge, numTri) // dual edge to parent (-1 at root)
	parentTri := grow(&sc.parentTri, numTri)
	for t := range parentEdge {
		parentEdge[t] = -2 // unvisited
		parentTri[t] = -1
	}
	parentEdge[rootTri] = -1
	// order is the BFS visit order and, past its head, the queue.
	order := grow(&sc.order, numTri)[:1]
	order[0] = int32(rootTri)
	for head := 0; head < len(order); head++ {
		t := order[head]
		for _, ei := range adj[adjStart[t]:adjStart[t+1]] {
			de := dualEdges[ei]
			o := int32(de.t1)
			if o == t {
				o = int32(de.t2)
			}
			if parentEdge[o] == -2 {
				parentEdge[o] = ei
				parentTri[o] = t
				order = append(order, o)
			}
		}
	}

	// Subtree dart weights (children before parents in reverse BFS order).
	sub := grow(&sc.sub, numTri)
	for _, t := range order {
		sub[t] = triW[t]
	}
	for i := len(order) - 1; i >= 1; i-- {
		t := order[i]
		sub[parentTri[t]] += sub[t]
	}
	total := 0
	for _, t := range order {
		if parentTri[t] == -1 {
			total += sub[t]
		}
	}
	res.TotalWeight = total

	// ---- Pick the most balanced usable dual-tree edge. ----
	bestEdge, bestScore, bestChild := -1, total+1, -1
	for i := 1; i < len(order); i++ {
		t := order[i]
		ei := parentEdge[t]
		de := dualEdges[ei]
		if de.u == de.v {
			continue // degenerate chord: closed curve, not a cycle through 2 vertices
		}
		if bfs.Dist[de.u] < 0 || bfs.Dist[de.v] < 0 {
			continue // endpoint outside the BFS component (disconnected bag)
		}
		inside := sub[t]
		outside := total - inside
		if inside == 0 || outside == 0 {
			continue
		}
		score := inside
		if outside > score {
			score = outside
		}
		if score < bestScore {
			bestScore, bestEdge, bestChild = score, int(ei), int(t)
		}
	}
	if bestEdge == -1 {
		return res
	}

	de := dualEdges[bestEdge]
	res.Found = true
	res.EX = EX{Real: de.edge >= 0, Edge: de.edge, U: de.u, V: de.v}
	res.InsideWeight = sub[bestChild]
	res.Balance = float64(bestScore) / float64(total)

	// Region assignment: triangles in the subtree below the chosen edge are
	// side 1. BFS order puts every parent before its children.
	side := grow(&sc.triSide, numTri)
	clear(side)
	side[bestChild] = 1
	for _, t := range order {
		if p := parentTri[t]; p >= 0 && side[p] == 1 {
			side[t] = 1
		}
	}
	for f := 0; f < sf.NumFaces(); f++ {
		for _, d := range sf.Cycle(f) {
			res.Side[d] = side[triOf[d]]
		}
	}

	// ---- Fundamental cycle: tree paths from u and v to their LCA. ----
	res.CycleVertices, res.CycleEdges = treePath(g, bfs, de.u, de.v)
	if de.edge >= 0 {
		res.CycleEdges = append(res.CycleEdges, de.edge)
	}
	return res
}

// treePath returns the vertices (u..lca..v) and edges of the tree path
// between u and v in the BFS tree, the edges with room for one more (EX when
// it is real). A first walk finds the LCA, so each slice is allocated once.
func treePath(g *planar.Graph, bfs *planar.BFSResult, u, v int) ([]int, []int) {
	up := func(x int) int { return g.Tail(bfs.Parent[x]) }
	a, b := u, v
	for bfs.Dist[a] > bfs.Dist[b] {
		a = up(a)
	}
	for bfs.Dist[b] > bfs.Dist[a] {
		b = up(b)
	}
	for a != b {
		a, b = up(a), up(b)
	}
	nu, nv := bfs.Dist[u]-bfs.Dist[a], bfs.Dist[v]-bfs.Dist[a]
	verts := make([]int, nu+nv+1)
	edges := make([]int, nu+nv, nu+nv+1)
	for i, x := 0, u; i < nu; i, x = i+1, up(x) {
		verts[i], edges[i] = x, planar.EdgeOf(bfs.Parent[x])
	}
	verts[nu] = a
	for i, x := nu+nv, v; i > nu; i, x = i-1, up(x) {
		verts[i], edges[i-1] = x, planar.EdgeOf(bfs.Parent[x])
	}
	return verts, edges
}
