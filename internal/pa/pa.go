// Package pa implements low-congestion shortcuts and the part-wise
// aggregation (PA) primitive (§4.1), the workhorse the minor-aggregation
// model compiles down to.
//
// Given a partition of (a subset of) the vertices into parts, each part's
// aggregate is routed over the part's Steiner tree inside a global BFS tree
// — the tree-restricted shortcut construction for planar graphs [14]. The
// schedule is simulated token-by-token under the CONGEST constraint of one
// message per directed edge per round, so the reported round count is a
// measurement of the realized congestion + dilation, not an assumed bound.
//
// The query path runs one such schedule per graph: DualPA.MeasureUnit's
// faces-as-parts instance on Ĝ, the price of one minor-aggregation round
// (flowbench's E7 reports the same instance). Ĝ is its own network: a
// *hatg.Graph lists every vertex's neighbors in one CSR slab, so the
// skeleton and the schedule read it without a copy.
package pa

import "math/bits"

// Network is the minimal view of a communication graph (*hatg.Graph, the
// face-disjoint graph Ĝ, is one; the tests adapt primal graphs too).
type Network interface {
	N() int
	NeighborsOf(v int) []int
}

// Op is a commutative, associative aggregation operator (Def. 4.3).
type Op func(a, b int64) int64

// Sum is the operator the minor-aggregation prices and girth's parallel-edge
// merge aggregate with.
var Sum Op = func(a, b int64) int64 { return a + b }

// Tree is a global BFS tree used as the shortcut skeleton.
type Tree struct {
	Root   int
	Parent []int // parent vertex (-1 at root)
	Depth  []int
	Height int
}

// BuildTree constructs a BFS tree from root; distributed cost is
// Height + O(1) rounds (callers charge it).
func BuildTree(net Network, root int) *Tree {
	n := net.N()
	t := &Tree{Root: root, Parent: make([]int, n), Depth: make([]int, n)}
	for v := range t.Parent {
		t.Parent[v] = -1
		t.Depth[v] = -1
	}
	t.Depth[root] = 0
	queue := make([]int, 1, n)
	queue[0] = root
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		if t.Depth[v] > t.Height {
			t.Height = t.Depth[v]
		}
		for _, u := range net.NeighborsOf(v) {
			if t.Depth[u] == -1 {
				t.Depth[u] = t.Depth[v] + 1
				t.Parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return t
}

// Parts assigns vertices to parts: Of[v] is the part of v or -1 for vertices
// that only relay messages.
type Parts struct {
	Of  []int
	Num int
}

// Result reports a PA run: per-part aggregates plus the realized cost of the
// token schedule.
type Result struct {
	Value      []int64 // aggregate per part
	Rounds     int     // measured schedule length (up + down phases)
	Congestion int     // max tokens over a single tree edge in one phase
	Dilation   int     // max Steiner-tree height over parts
}

// forest is every part's Steiner tree inside the global tree, flattened: a
// Steiner node is an id, the nodes of one part are consecutive ids, and
// everything the schedule keeps per (part, vertex) is an array over ids.
type forest struct {
	root     []int32 // per part: the id of its Steiner root, -1 when it has no member
	vert     []int32 // per id: the network vertex
	parent   []int32 // per id: the id of the Steiner parent, -1 at a root
	kids     []int32 // per id: number of Steiner children
	member   []bool  // per id: the vertex belongs to the part (it has an input)
	dilation int     // max Steiner-tree height over parts
}

// buildForest lays out the Steiner tree of every part: the union of its
// members' paths to the global root, with the chain above their common
// ancestor trimmed. memStart/members list each part's members (CSR). The
// scratch arrays over the network's vertices are stamped with the part's
// epoch instead of cleared, so a part costs its own tree, not n. A first
// pass lists every part's nodes — at least its reached members, so vert
// starts at that capacity — and a second, with vert's final length known,
// fills the arrays over ids.
func buildForest(t *Tree, n int, memStart, members []int32) *forest {
	numParts := len(memStart) - 1
	f := &forest{root: make([]int32, numParts), vert: make([]int32, 0, len(members))}
	inTree := make([]int32, n) // epoch of the part whose union holds the vertex
	isMem := make([]int32, n)  // epoch of the part the vertex is a member of
	kids := make([]int32, n)   // children inside the current union
	oneKid := make([]int32, n) // one of them
	end := make([]int32, numParts)
	for i := 0; i < numParts; i++ {
		epoch := int32(i + 1)
		first := len(f.vert)
		f.root[i] = -1
		for _, v := range members[memStart[i]:memStart[i+1]] {
			if t.Depth[v] < 0 {
				continue // not reached by the global tree: nothing routes to it
			}
			isMem[v] = epoch
			for x := int(v); x != -1 && inTree[x] != epoch; x = t.Parent[x] {
				inTree[x], kids[x] = epoch, 0
				f.vert = append(f.vert, int32(x))
			}
		}
		if len(f.vert) == first {
			end[i] = int32(first)
			continue
		}
		for _, x := range f.vert[first:] {
			if p := t.Parent[x]; p != -1 {
				kids[p]++
				oneKid[p] = x
			}
		}
		// Trim the chain above the LCA: descend from the global root while
		// the current node is a non-member with exactly one Steiner child.
		root := int32(t.Root)
		for isMem[root] != epoch && kids[root] == 1 {
			inTree[root] = 0
			root = oneKid[root]
		}
		w := first
		for _, x := range f.vert[first:] {
			if inTree[x] == epoch {
				if x == root {
					f.root[i] = int32(w)
				}
				f.vert[w] = x
				w++
			}
		}
		f.vert, end[i] = f.vert[:w], int32(w)
	}
	// The second pass: isMem is stamped again, with epochs past the first
	// pass's, and pos maps a vertex to its id in the current part. A node's
	// Steiner parent is its global parent, kept in the part's tree.
	pos := oneKid
	f.parent = make([]int32, len(f.vert))
	f.kids = make([]int32, len(f.vert))
	f.member = make([]bool, len(f.vert))
	first := int32(0)
	for i := 0; i < numParts; i++ {
		epoch := int32(numParts + i + 1)
		for _, v := range members[memStart[i]:memStart[i+1]] {
			isMem[v] = epoch
		}
		for id := first; id < end[i]; id++ {
			pos[f.vert[id]] = id
		}
		for id := first; id < end[i]; id++ {
			x := f.vert[id]
			f.member[id] = isMem[x] == epoch
			if id == f.root[i] {
				f.parent[id] = -1
				continue
			}
			p := pos[t.Parent[x]]
			f.parent[id] = p
			f.kids[p]++
			// The Steiner tree hangs off its root along global tree edges,
			// so a node's height in it is its depth below the root.
			if h := t.Depth[x] - t.Depth[f.vert[f.root[i]]]; h > f.dilation {
				f.dilation = h
			}
		}
		first = end[i]
	}
	return f
}

// Aggregate solves the PA problem: for every part, the op-aggregate of the
// inputs of its members, computed by convergecast + broadcast over per-part
// Steiner trees with a round-by-round token schedule.
func Aggregate(net Network, t *Tree, parts Parts, input []int64, op Op) *Result {
	n := net.N()
	res := &Result{Value: make([]int64, parts.Num)}

	// Members by part, counting-sorted (ascending vertex within a part).
	memStart := make([]int32, parts.Num+1)
	for _, p := range parts.Of {
		if p >= 0 {
			memStart[p+1]++
		}
	}
	for p := 0; p < parts.Num; p++ {
		memStart[p+1] += memStart[p]
	}
	members := make([]int32, memStart[parts.Num])
	cursor := append([]int32(nil), memStart[:parts.Num]...)
	for v, p := range parts.Of {
		if p >= 0 {
			members[cursor[p]] = int32(v)
			cursor[p]++
		}
	}
	f := buildForest(t, n, memStart, members)
	res.Dilation = f.dilation
	total := len(f.vert)

	// Every non-root Steiner node sends one token up its tree edge
	// v->parent(v) and receives one down it, so the queue of vertex v is a
	// segment of one buffer, as long as the trees that hold v below a root.
	qStart := make([]int32, n+1)
	for id, p := range f.parent {
		if p >= 0 {
			qStart[f.vert[id]+1]++
		}
	}
	for v := 0; v < n; v++ {
		qStart[v+1] += qStart[v]
	}
	qbuf := make([]int32, qStart[n])
	head := make([]int32, n)
	tail := make([]int32, n)
	// busy has bit v set while v's queue holds a token, so a round visits
	// the vertices that send, not all n.
	busy := make([]uint64, (n+63)/64)
	enqueue := func(id int32) {
		v := f.vert[id]
		qbuf[tail[v]] = id
		tail[v]++
		busy[v>>6] |= 1 << (v & 63)
	}
	// step pops at most one token per directed edge (CONGEST capacity) into
	// arrived, in vertex order.
	arrived := make([]int32, 0, n)
	step := func() bool {
		arrived = arrived[:0]
		for w, word := range busy {
			for word != 0 {
				v := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				arrived = append(arrived, qbuf[head[v]])
				head[v]++
				if head[v] == tail[v] {
					busy[w] &^= 1 << (v & 63)
				}
			}
		}
		return len(arrived) > 0
	}

	// ---- Up phase: convergecast one token per Steiner edge. ----
	acc := make([]int64, total)
	has := make([]bool, total)
	for id, m := range f.member {
		if m {
			acc[id], has[id] = input[f.vert[id]], true
		}
	}
	pending := append([]int32(nil), f.kids...)
	copy(head, qStart)
	copy(tail, qStart)
	for id := range pending {
		if pending[id] == 0 && f.parent[id] >= 0 {
			enqueue(int32(id))
		}
	}
	upRounds := 0
	for step() {
		upRounds++
		for _, id := range arrived {
			p := f.parent[id]
			if has[p] {
				acc[p] = op(acc[p], acc[id])
			} else {
				acc[p], has[p] = acc[id], true
			}
			pending[p]--
			if pending[p] == 0 && f.parent[p] >= 0 {
				enqueue(p)
			}
		}
	}
	for i, r := range f.root {
		if r >= 0 {
			res.Value[i] = acc[r]
		}
	}
	for v := 0; v < n; v++ {
		if load := int(tail[v] - qStart[v]); load > res.Congestion {
			res.Congestion = load
		}
	}

	// ---- Down phase: broadcast the result over the same Steiner trees.
	// Token per Steiner edge again; queue keyed by the child endpoint.
	childStart := make([]int32, total+1)
	for id, k := range f.kids {
		childStart[id+1] = childStart[id] + k
	}
	children := make([]int32, childStart[total])
	fill := append([]int32(nil), childStart[:total]...)
	for id, p := range f.parent {
		if p >= 0 {
			children[fill[p]] = int32(id)
			fill[p]++
		}
	}
	copy(head, qStart)
	copy(tail, qStart)
	for _, r := range f.root {
		if r >= 0 {
			for _, c := range children[childStart[r]:childStart[r+1]] {
				enqueue(c)
			}
		}
	}
	downRounds := 0
	for step() {
		downRounds++
		for _, id := range arrived {
			for _, c := range children[childStart[id]:childStart[id+1]] {
				enqueue(c)
			}
		}
	}

	res.Rounds = upRounds + downRounds
	return res
}
