package planar

// BFSResult holds an unweighted undirected BFS tree of the graph.
type BFSResult struct {
	Root   int
	Dist   []int  // hop distance from Root (-1 unreachable)
	Parent []Dart // dart pointing from Parent towards the vertex (NoDart at root)
	Depth  int    // eccentricity of Root
	Order  []int  // vertices in visit order
}

// BFS runs an undirected breadth-first search from root.
func (g *Graph) BFS(root int) *BFSResult { return g.BFSWithin(root, nil) }

// BFSWithin runs BFS from root restricted to darts for which allowed reports
// true for the dart or its reversal (i.e. allowed edges); a nil allowed
// allows every dart.
func (g *Graph) BFSWithin(root int, allowed func(d Dart) bool) *BFSResult {
	res := &BFSResult{
		Root:   root,
		Dist:   make([]int, g.n),
		Parent: make([]Dart, g.n),
		Order:  make([]int, 0, g.n),
	}
	for v := range res.Dist {
		res.Dist[v] = -1
		res.Parent[v] = NoDart
	}
	res.Dist[root] = 0
	// Order is the visit order and, past its head, the queue.
	res.Order = append(res.Order, root)
	for head := 0; head < len(res.Order); head++ {
		v := res.Order[head]
		if res.Dist[v] > res.Depth {
			res.Depth = res.Dist[v]
		}
		for _, d := range g.rot[v] {
			if allowed != nil && !allowed(d) {
				continue
			}
			u := g.Head(d)
			if res.Dist[u] == -1 {
				res.Dist[u] = res.Dist[v] + 1
				res.Parent[u] = d
				res.Order = append(res.Order, u)
			}
		}
	}
	return res
}

// Diameter returns the exact unweighted hop diameter (n BFS runs; intended
// for test/benchmark sizes).
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if e := g.BFS(v).Depth; e > d {
			d = e
		}
	}
	return d
}

// DiameterLowerBound returns a 2-sweep lower bound on the diameter (exact on
// trees; at least D/2 in general), cheap enough for large benchmark graphs.
func (g *Graph) DiameterLowerBound() int {
	b1 := g.BFS(0)
	far := 0
	for v, dv := range b1.Dist {
		if dv > b1.Dist[far] {
			far = v
		}
	}
	return g.BFS(far).Depth
}
