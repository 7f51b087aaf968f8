package label

import (
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// kernel is the local computation of one bag — what a vertex that collected
// a leaf bag or a DDG computes for free (§5.3): Johnson's algorithm over a
// CSR digraph. One Bellman–Ford pass from a virtual source at distance 0 to
// every node is both the bag's negative-cycle verdict and the potentials;
// each requested row is then one heap Dijkstra over the reduced, non-negative
// lengths, un-reduced on the way out. Distances are integers, so a row equals
// per-source Bellman–Ford's (internal/spath's baseline, which the kernel is
// tested against) bit for bit, and no ledger entry depends on which ran:
// local computation is charged nowhere. The same CSR graph also serves the
// per-bag cycle enumerations (cycle.go): a bounded, masked Dijkstra
// (shortest) over non-negative lengths as loaded, with no potentials pass.
//
// A kernel belongs to one labeling pass, or one cycle enumeration, and is
// reused across its bags; a Labeling never holds one. start, to and dart only
// ever view an array — a leaf's are the plan's shared skeleton, which
// concurrent passes read — and are never written through or grown; what the
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

	// What start, to and dart view after loadArcs.
	ownStart, ownTo []int32
	ownDart         []planar.Dart

	// shortest's per-node state, all spath.Inf and -1 between searches.
	dist    []int64
	at      []int32
	touched []int32
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

// loadLeaf points the kernel at a leaf's skeleton and gathers its arc
// lengths; it returns the number of active arcs.
func (k *kernel) loadLeaf(bp *bagPlan, lengths []int64) (active int) {
	k.n, k.start, k.to, k.dart = len(bp.leafStart)-1, bp.leafStart, bp.leafTo, bp.leafDart
	k.length = grow(k.length, len(bp.leafDart))
	for i, d := range bp.leafDart {
		l := lengths[d]
		k.length[i] = l
		if l < spath.Inf {
			active++
		}
	}
	return active
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

// potentials runs Bellman–Ford from the virtual source and reports whether
// the loaded graph is free of negative cycles. On true the arc lengths are
// left reduced (length + h[tail] − h[head] ≥ 0) for row.
func (k *kernel) potentials() bool {
	n := k.n
	k.h = grow(k.h, n)
	h := k.h
	clear(h)
	// Round 0 is the virtual source's arcs (every h = 0); a shortest path
	// has at most n−1 further arcs, so a change in round n is a cycle.
	for round := 1; ; round++ {
		changed := false
		for u := 0; u < n; u++ {
			hu := h[u]
			for i, end := k.start[u], k.start[u+1]; i < end; i++ {
				if l := k.length[i]; l < spath.Inf && hu+l < h[k.to[i]] {
					h[k.to[i]] = hu + l
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if round == n {
			return false
		}
	}
	for u := 0; u < n; u++ {
		for i, end := k.start[u], k.start[u+1]; i < end; i++ {
			if k.length[i] < spath.Inf {
				k.length[i] += h[u] - h[k.to[i]]
			}
		}
	}
	return true
}

// row writes the distances from src to every node into out (len n;
// spath.Inf where unreachable). potentials must have returned true.
func (k *kernel) row(src int, out []int64) {
	k.where = grow(k.where, k.n)
	where := k.where // node -> index in the heap; -1 before it enters, -2 once settled
	for i := range out {
		out[i], where[i] = spath.Inf, -1
	}
	out[src] = 0
	q := append(k.heap[:0], heapItem{0, int32(src)})
	where[src] = 0
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
		u := int(top.v)
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
	k.heap = q
	// Un-reduce: dist(src, v) = reduced − h[src] + h[v].
	hs := k.h[src]
	for v, d := range out {
		if d < spath.Inf {
			out[v] = d - hs + k.h[v]
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
