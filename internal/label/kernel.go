package label

import (
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// kernel is the local computation of one bag — what a vertex that collected
// a leaf bag or a DDG computes for free (§5.3): Johnson's algorithm over a
// CSR digraph. One Bellman–Ford run from a virtual source at distance 0 to
// every node is both the bag's negative-cycle verdict and the potentials;
// each requested row is then one heap Dijkstra over the reduced, non-negative
// lengths, un-reduced on the way out. A bag's rows run in node order and
// reuse the rows already finished: a lower node a row pops relaxes every
// node through its own row instead of expanding its arcs. Distances are
// integers, so a row equals per-source Bellman–Ford's (internal/spath's
// baseline, which the kernel is tested against) bit for bit, and no ledger
// entry depends on which ran: local computation is charged nowhere. The same
// CSR graph also serves the per-bag cycle enumerations (cycle.go): a
// bounded, masked Dijkstra (shortest) over non-negative lengths as loaded,
// with no potentials run.
//
// A kernel belongs to one labeling pass, one probe, or one cycle
// enumeration, and is reused across its bags; a Labeling never holds one.
// start, to and dart only ever view an array — a skeleton's are shared, read
// by concurrent passes — and are never written through or grown; what the
// kernel writes it owns.
type kernel struct {
	n     int
	start []int32 // arcs of tail u are [start[u], start[u+1])
	to    []int32
	dart  []planar.Dart // per arc, its dart (NoDart for a DDG's clique and zero arcs)

	length []int64 // per arc; after potentials, the reduced length (spath.Inf: inactive)
	h      []int64 // per node potential: distance from the virtual source
	heap   []heapItem
	where  []int32 // per node, its index in heap

	// potentials' state, cut from one slab. The tree of last-relaxing tails
	// is a preorder list over nodes 0..n, node n the virtual source at its
	// head: per node its depth (-1 once its subtree was detached) and its
	// neighbours in the list. queue is the FIFO worklist, a ring of n slots
	// holding qlen nodes from slot 0 until settle runs, and state each
	// node's place in it; relaxations is the last run's relaxation count,
	// and pops the last row's heap pops.
	slab                            []int32
	depth, next, prev, queue, state []int32
	qlen                            int
	relaxations, pops               int

	// What start, to and dart view after loadArcs.
	ownStart, ownTo []int32
	ownDart         []planar.Dart

	// shortest's per-node state, all spath.Inf and -1 between searches.
	dist    []int64
	at      []int32
	touched []int32
}

// skeleton is a digraph's CSR layout without its lengths: arcs sorted by
// tail, arc i the arc of dart[i]. Every bag's own graph lives in the plan.
type skeleton struct {
	start []int32 // len n+1
	to    []int32
	dart  []planar.Dart
}

type heapItem struct {
	d int64
	v int32
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// load points the kernel at a skeleton and gathers its arc lengths.
func (k *kernel) load(sk *skeleton, lengths []int64) {
	k.n, k.start, k.to, k.dart = len(sk.start)-1, sk.start, sk.to, sk.dart
	k.length = grow(k.length, len(sk.dart))
	for i, d := range sk.dart {
		k.length[i] = lengths[d]
	}
}

// loadGathered points the kernel at a skeleton and copies its arc lengths,
// given in its arc order.
func (k *kernel) loadGathered(sk *skeleton, arcs []int64) {
	k.n, k.start, k.to, k.dart = len(sk.start)-1, sk.start, sk.to, sk.dart
	k.length = append(k.length[:0], arcs...)
}

// loadArcs loads a digraph on n nodes from an arc list (every arc active),
// counting-sorted by tail into the kernel's own arrays.
func (k *kernel) loadArcs(n int, arcs []DDGArc) {
	k.ownStart = grow(k.ownStart, n+1)
	k.ownTo = grow(k.ownTo, len(arcs))
	k.ownDart = grow(k.ownDart, len(arcs))
	k.length = grow(k.length, len(arcs))
	start := k.ownStart
	clear(start)
	for _, a := range arcs {
		start[a.From+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	// Place each arc at its tail's cursor, then shift the cursors back.
	for _, a := range arcs {
		i := start[a.From]
		k.ownTo[i], k.ownDart[i], k.length[i] = a.To, planar.Dart(a.Dart), a.Len
		start[a.From]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	k.n, k.start, k.to, k.dart = n, start, k.ownTo, k.ownDart
}

// A node's place in potentials' worklist: out of it, in it, or in it but
// detached from the tree since it entered, so its scan is skipped.
const (
	idle int32 = iota
	active
	inactive
)

// potentials runs Bellman–Ford from the virtual source and reports whether
// the loaded graph is free of negative cycles; on true h is a potential
// (length + h[tail] − h[head] ≥ 0 on every arc) and reduce readies rows.
// From h = 0 only a negative arc can relax, so the worklist starts at the
// negative arcs' tails.
func (k *kernel) potentials() bool {
	k.clearTree()
	for u := range k.n {
		for i, end := k.start[u], k.start[u+1]; i < end; i++ {
			if k.length[i] < 0 {
				k.seed(int32(u))
				break
			}
		}
	}
	return k.settle()
}

// clearTree readies a potentials run: h = 0 on every node, each a child of
// the virtual source, and an empty worklist.
func (k *kernel) clearTree() {
	n := k.n
	k.h, k.slab = grow(k.h, n), grow(k.slab, 5*n+3)
	k.depth, k.next, k.prev = k.slab[:n+1], k.slab[n+1:2*n+2], k.slab[2*n+2:3*n+3]
	k.queue, k.state = k.slab[3*n+3:4*n+3], k.slab[4*n+3:]
	clear(k.h)
	clear(k.state)
	for u := range int32(n + 1) {
		k.depth[u], k.next[u], k.prev[u] = 1, u+1, u-1
	}
	k.depth[n], k.next[n], k.prev[0] = 0, 0, int32(n)
	k.qlen = 0
}

// seed puts node u on the worklist, once: a node whose arcs may relax from
// h = 0. clearTree must have run.
func (k *kernel) seed(u int32) {
	if k.state[u] == idle {
		k.queue[k.qlen], k.state[u] = u, active
		k.qlen++
	}
}

// settle is the worklist Bellman–Ford of potentials from the seeded nodes,
// with Tarjan's subtree disassembly (Cherkassky & Goldberg, "Negative-cycle
// detection algorithms", 1999). The tails that last lowered each h form a
// tree under the virtual source, kept as a preorder list with depths; a
// relaxation of (u, v) first detaches v's subtree — the nodes after v in the
// list deeper than v — and reports a negative cycle when u is in it: the
// tree path from v to u is tight, so with the arc it closes a cycle of
// length h[u] + l − h[v] < 0. The detached nodes leave the tree and are
// skipped on the worklist: their h will fall again from v's. Every tree arc
// is therefore tight, so every h in the tree is a simple path's length, and
// the run ends:
// with a negative cycle it is caught at the relaxation that closes it, and
// otherwise h is the distance from the virtual source, whatever order
// relaxed it, so rows are what a sweeping Bellman–Ford leaves. FIFO order
// runs the classic rounds one after another, so more than n·m relaxations
// would be a negative cycle too; the bound stands guard only.
func (k *kernel) settle() bool {
	n, start, to, length := k.n, k.start, k.to, k.length
	h, depth, next, prev, queue, state := k.h, k.depth, k.next, k.prev, k.queue, k.state
	head, size := 0, k.qlen
	tail := size % max(n, 1)
	bound := n * len(length)
	relaxations := 0
	for size > 0 {
		u := queue[head]
		if head++; head == n {
			head = 0
		}
		size--
		st := state[u]
		if state[u] = idle; st == inactive {
			continue
		}
		hu, du := h[u], depth[u]
		for i, end := start[u], start[u+1]; i < end; i++ {
			l, v := length[i], to[i]
			if l >= spath.Inf || hu+l >= h[v] {
				continue
			}
			if relaxations++; relaxations > bound || v == u {
				k.relaxations = relaxations
				return false
			}
			if dv := depth[v]; dv >= 0 {
				x := next[v]
				for ; depth[x] > dv; x = next[x] {
					if x == u {
						k.relaxations = relaxations
						return false
					}
					depth[x] = -1
					if state[x] == active {
						state[x] = inactive
					}
				}
				next[prev[v]], prev[x] = x, prev[v]
			}
			w := next[u]
			h[v], depth[v] = hu+l, du+1
			next[u], prev[v], next[v], prev[w] = v, u, w, v
			switch state[v] {
			case idle:
				queue[tail], state[v] = v, active
				if tail++; tail == n {
					tail = 0
				}
				size++
			case inactive:
				state[v] = active
			}
		}
	}
	k.relaxations = relaxations
	return true
}

// reduce replaces the arc lengths by their reduced lengths under the
// potentials (length + h[tail] − h[head] ≥ 0), which row runs on.
// potentials must have returned true.
func (k *kernel) reduce() {
	for u := 0; u < k.n; u++ {
		hu := k.h[u]
		for i, end := k.start[u], k.start[u+1]; i < end; i++ {
			if k.length[i] < spath.Inf {
				k.length[i] += hu - k.h[k.to[i]]
			}
		}
	}
}

// row writes the distances from src to every node into out (len n;
// spath.Inf where unreachable). reduce must have run. done holds the finished
// rows of nodes 0..len(done)/n−1, un-reduced and n apart (nil: none). A
// popped node u among them expands no arc: through its row it lowers every w
// to dist(src, u) plus dist(u, w), pushing nothing, which covers every path
// on through u; and a node whose value a row set is final, so when it is
// popped after, at the key it entered the heap with, it is skipped. Pushed
// keys stay monotone, so no settled node improves.
func (k *kernel) row(src int, out, done []int64) {
	n, h := k.n, k.h
	ndone := len(done) / n
	k.where = grow(k.where, n)
	where := k.where // node -> index in the heap; -1 before it enters, -2 once settled
	for i := range out {
		out[i], where[i] = spath.Inf, -1
	}
	out[src] = 0
	q := append(k.heap[:0], heapItem{0, int32(src)})
	where[src] = 0
	pops := 0
	for len(q) > 0 {
		top := q[0]
		where[top.v] = -2
		last := len(q) - 1
		if it := q[last]; last > 0 {
			q = q[:last]
			siftDown(q, where, it)
		} else {
			q = q[:0]
		}
		pops++
		u := int(top.v)
		if top.d > out[u] {
			continue // a row lowered u after it entered the heap
		}
		if u < ndone {
			// In reduced lengths: top.d + h[u] + dist(u, w) − h[w].
			base := top.d + h[u]
			for w, d := range done[u*n : (u+1)*n] {
				if d < spath.Inf && base+d-h[w] < out[w] {
					out[w] = base + d - h[w]
				}
			}
			continue
		}
		for i, end := k.start[u], k.start[u+1]; i < end; i++ {
			l := k.length[i]
			if l >= spath.Inf {
				continue
			}
			v, nd := k.to[i], top.d+l
			if nd >= out[v] {
				continue
			}
			out[v] = nd
			at := where[v]
			if at < 0 {
				at = int32(len(q))
				q = append(q, heapItem{})
			}
			siftUp(q, where, at, heapItem{nd, v})
		}
	}
	k.heap, k.pops = q, pops
	// Un-reduce: dist(src, v) = reduced − h[src] + h[v].
	hs := h[src]
	for v, d := range out {
		if d < spath.Inf {
			out[v] = d - hs + h[v]
		}
	}
}

// shortest returns dist(src → dst) when it is below bound, and spath.Inf
// otherwise, with src's arcs to dst that carry dart skip masked. It runs on
// lengths as loaded — non-negative, potentials never run — and stops as soon
// as dst settles or the frontier reaches bound. Only the distance is read, so
// the order ties settle in is irrelevant.
func (k *kernel) shortest(src, dst int, skip planar.Dart, bound int64) int64 {
	if len(k.dist) < k.n {
		k.dist, k.at = make([]int64, k.n), make([]int32, k.n)
		for v := range k.dist {
			k.dist[v], k.at[v] = spath.Inf, -1
		}
	}
	dist, at := k.dist, k.at // at: node -> index in the heap; -2 once settled
	q := append(k.heap[:0], heapItem{0, int32(src)})
	dist[src], at[src] = 0, 0
	touched := append(k.touched[:0], int32(src))
	res := spath.Inf
	for len(q) > 0 && q[0].d < bound {
		top := q[0]
		if int(top.v) == dst {
			res = top.d
			break
		}
		at[top.v] = -2
		last := len(q) - 1
		if it := q[last]; last > 0 {
			q = q[:last]
			siftDown(q, at, it)
		} else {
			q = q[:0]
		}
		u := int(top.v)
		for i, end := k.start[u], k.start[u+1]; i < end; i++ {
			l := k.length[i]
			if l >= spath.Inf {
				continue
			}
			v, nd := k.to[i], top.d+l
			if nd >= dist[v] || nd >= bound || (u == src && int(v) == dst && k.dart[i] == skip) {
				continue
			}
			if dist[v] == spath.Inf {
				touched = append(touched, v)
			}
			dist[v] = nd
			pos := at[v]
			if pos < 0 {
				pos = int32(len(q))
				q = append(q, heapItem{})
			}
			siftUp(q, at, pos, heapItem{nd, v})
		}
	}
	for _, v := range touched {
		dist[v], at[v] = spath.Inf, -1
	}
	k.heap, k.touched = q, touched
	return res
}

// siftUp places it in the min-heap q at index i or above, keeping where.
func siftUp(q []heapItem, where []int32, i int32, it heapItem) {
	for i > 0 {
		p := (i - 1) / 2
		if q[p].d <= it.d {
			break
		}
		q[i] = q[p]
		where[q[i].v] = i
		i = p
	}
	q[i] = it
	where[it.v] = i
}

// siftDown places it in the min-heap q at the root or below, keeping where.
func siftDown(q []heapItem, where []int32, it heapItem) {
	n := int32(len(q))
	i := int32(0)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].d < q[c].d {
			c++
		}
		if it.d <= q[c].d {
			break
		}
		q[i] = q[c]
		where[q[i].v] = i
		i = c
	}
	q[i] = it
	where[it.v] = i
}
