package spath

// FlowNetwork is a capacitated directed graph for the Dinic max-flow
// baseline. Arcs are stored with explicit residual twins.
type FlowNetwork struct {
	n    int
	head []int32 // head[a] = target of arc a
	next [][]int32
	cap  []int64
	id   []int // caller-assigned id of the forward arc (-1 for residual twins)
}

// NewFlowNetwork returns an empty flow network on n vertices.
func NewFlowNetwork(n int) *FlowNetwork {
	return &FlowNetwork{n: n, next: make([][]int32, n)}
}

// AddEdge adds a directed edge u->v with the given capacity and returns its
// arc index. A zero-capacity residual twin v->u is added automatically.
func (fn *FlowNetwork) AddEdge(u, v int, capacity int64, id int) int {
	a := len(fn.head)
	fn.head = append(fn.head, int32(v), int32(u))
	fn.cap = append(fn.cap, capacity, 0)
	fn.id = append(fn.id, id, -1)
	fn.next[u] = append(fn.next[u], int32(a))
	fn.next[v] = append(fn.next[v], int32(a+1))
	return a
}

// MaxFlow computes the maximum s-t flow with Dinic's algorithm and returns
// its value. The flow on forward arc a is left in its residual twin's
// capacity, cap[a^1].
func (fn *FlowNetwork) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	level := make([]int32, fn.n)
	iter := make([]int, fn.n)
	queue := make([]int32, 0, fn.n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, int32(s))
		level[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, a := range fn.next[v] {
				if fn.cap[a] > 0 && level[fn.head[a]] == -1 {
					level[fn.head[a]] = level[v] + 1
					queue = append(queue, fn.head[a])
				}
			}
		}
		return level[t] != -1
	}

	var dfs func(v int, f int64) int64
	dfs = func(v int, f int64) int64 {
		if v == t {
			return f
		}
		for ; iter[v] < len(fn.next[v]); iter[v]++ {
			a := fn.next[v][iter[v]]
			u := fn.head[a]
			if fn.cap[a] <= 0 || level[u] != level[v]+1 {
				continue
			}
			pushed := f
			if fn.cap[a] < pushed {
				pushed = fn.cap[a]
			}
			got := dfs(int(u), pushed)
			if got > 0 {
				fn.cap[a] -= got
				fn.cap[a^1] += got
				return got
			}
		}
		return 0
	}

	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, Inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}
