package pa

import (
	"reflect"
	"testing"

	"planarflow/internal/hatg"
	"planarflow/internal/planar"
)

// TestAggregateMatchesMapReference: the flat-array schedule reports the
// values, rounds, congestion and dilation of the map-keyed one it replaced —
// on random partitions with relays and empty parts over random trees, and on
// the faces-as-parts instance on Ĝ that prices a minor-aggregation round.
func TestAggregateMatchesMapReference(t *testing.T) {
	rng := planar.NewRand(77)
	check := func(name string, net Network, tree *Tree, parts Parts, input []int64, op Op) {
		t.Helper()
		got, want := Aggregate(net, tree, parts, input, op), aggregateMaps(net, tree, parts, input, op)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v, want %+v", name, got, want)
		}
	}
	for trial := 0; trial < 60; trial++ {
		g := planar.StackedTriangulation(4+rng.IntN(80), rng)
		if trial%3 == 0 {
			g = planar.Grid(2+rng.IntN(7), 2+rng.IntN(9))
		}
		net := FromPlanar(g)
		tree := BuildTree(net, rng.IntN(g.N()))
		num := 1 + rng.IntN(9)
		parts := Parts{Of: make([]int, g.N()), Num: num}
		input := make([]int64, g.N())
		for v := range parts.Of {
			parts.Of[v] = rng.IntN(num+2) - 2 // relays twice as likely; some parts stay empty
			if parts.Of[v] < -1 {
				parts.Of[v] = -1
			}
			input[v] = rng.Int64N(1000) - 500
		}
		check("random/sum", net, tree, parts, input, Sum)
		check("random/min", net, tree, parts, input, Min)
	}
	for _, g := range []*planar.Graph{planar.Grid(6, 6), planar.Grid(12, 12), planar.BoustrophedonGrid(8, 8), planar.StackedTriangulation(100, planar.NewRand(17))} {
		h := hatg.New(g)
		tree := BuildTree(h, 0)
		nf := g.Faces().NumFaces()
		parts := Parts{Of: make([]int, h.N()), Num: nf}
		input := make([]int64, h.N())
		for x := range parts.Of {
			parts.Of[x] = -1
			if !h.IsStarCenter(x) {
				parts.Of[x] = h.FaceOfCopy(x)
				input[x] = int64(x % 7)
			}
		}
		check("faces-as-parts", h, tree, parts, input, Sum)
	}
}

// steiner describes one part's Steiner tree inside the global tree.
type steiner struct {
	root     int
	nodes    []int
	children map[int][]int // within the Steiner tree
	parent   map[int]int
}

func buildSteiner(t *Tree, members []int) steiner {
	st := steiner{parent: make(map[int]int), children: make(map[int][]int)}
	if len(members) == 0 {
		st.root = -1
		return st
	}
	inTree := make(map[int]bool)
	isMember := make(map[int]bool, len(members))
	for _, v := range members {
		isMember[v] = true
	}
	// Union of member-to-root paths.
	for _, v := range members {
		for x := v; x != -1 && !inTree[x]; x = t.Parent[x] {
			inTree[x] = true
		}
	}
	for x := range inTree {
		p := t.Parent[x]
		if p != -1 && inTree[p] {
			st.parent[x] = p
			st.children[p] = append(st.children[p], x)
		}
	}
	// Trim the chain above the LCA: descend from the global root while the
	// current node is a non-member with exactly one Steiner child.
	root := t.Root
	for !isMember[root] && len(st.children[root]) == 1 {
		next := st.children[root][0]
		delete(st.children, root)
		delete(st.parent, next)
		root = next
	}
	st.root = root
	// Collect nodes reachable from the trimmed root.
	stack := []int{root}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.nodes = append(st.nodes, x)
		stack = append(stack, st.children[x]...)
	}
	return st
}

// aggregateMaps is Aggregate as it was written first: one map entry per
// (part, vertex). Kept as the oracle the flat-array schedule is held to.
func aggregateMaps(net Network, t *Tree, parts Parts, input []int64, op Op) *Result {
	res := &Result{Value: make([]int64, parts.Num)}
	members := make([][]int, parts.Num)
	for v, p := range parts.Of {
		if p >= 0 {
			members[p] = append(members[p], v)
		}
	}
	sts := make([]steiner, parts.Num)
	for i := range sts {
		sts[i] = buildSteiner(t, members[i])
		h := steinerHeight(sts[i])
		if h > res.Dilation {
			res.Dilation = h
		}
	}

	// ---- Up phase: convergecast one token per Steiner edge. ----
	type key struct{ part, v int }
	acc := make(map[key]int64)
	pendingKids := make(map[key]int)
	memberSet := make(map[key]bool)
	for i, st := range sts {
		if st.root == -1 {
			continue
		}
		for _, v := range st.nodes {
			pendingKids[key{i, v}] = len(st.children[v])
		}
		for _, v := range members[i] {
			memberSet[key{i, v}] = true
			acc[key{i, v}] = input[v]
		}
	}
	combine := func(k key, val int64) {
		if cur, ok := acc[k]; ok {
			acc[k] = op(cur, val)
		} else {
			acc[k] = val
		}
	}

	// upQueue[v] holds tokens waiting to traverse the tree edge v->parent(v);
	// one token crosses per round (CONGEST capacity).
	upQueue := make([][]key, net.N())
	edgeLoad := make([]int, net.N()) // tokens ever enqueued on v->parent(v)
	ready := func(i, v int) {
		st := &sts[i]
		if v == st.root {
			res.Value[i] = acc[key{i, v}]
			return
		}
		upQueue[v] = append(upQueue[v], key{i, v})
		edgeLoad[v]++
	}
	for i, st := range sts {
		if st.root == -1 {
			continue
		}
		for _, v := range st.nodes {
			if pendingKids[key{i, v}] == 0 {
				ready(i, v)
			}
		}
	}
	upRounds := 0
	for {
		moved := false
		// Deliver at most one token per directed edge this round.
		type delivery struct {
			k      key
			parent int
		}
		var ds []delivery
		for v := range upQueue {
			if len(upQueue[v]) == 0 {
				continue
			}
			k := upQueue[v][0]
			upQueue[v] = upQueue[v][1:]
			ds = append(ds, delivery{k: k, parent: sts[k.part].parent[k.v]})
			moved = true
		}
		if !moved {
			break
		}
		upRounds++
		for _, d := range ds {
			pk := key{d.k.part, d.parent}
			combine(pk, acc[d.k])
			pendingKids[pk]--
			if pendingKids[pk] == 0 {
				ready(d.k.part, d.parent)
			}
		}
	}
	for v := range edgeLoad {
		if edgeLoad[v] > res.Congestion {
			res.Congestion = edgeLoad[v]
		}
	}

	// ---- Down phase: broadcast the result over the same Steiner trees.
	// Token per Steiner edge again; queue keyed by the child endpoint.
	downQueue := make([][]key, net.N()) // tokens waiting on parent(v)->v
	for i, st := range sts {
		if st.root == -1 {
			continue
		}
		for _, c := range st.children[st.root] {
			downQueue[c] = append(downQueue[c], key{i, c})
		}
	}
	downRounds := 0
	for {
		moved := false
		var arrivals []key
		for v := range downQueue {
			if len(downQueue[v]) == 0 {
				continue
			}
			k := downQueue[v][0]
			downQueue[v] = downQueue[v][1:]
			arrivals = append(arrivals, k)
			moved = true
		}
		if !moved {
			break
		}
		downRounds++
		for _, k := range arrivals {
			for _, c := range sts[k.part].children[k.v] {
				downQueue[c] = append(downQueue[c], key{k.part, c})
			}
		}
	}

	res.Rounds = upRounds + downRounds
	return res
}

func steinerHeight(st steiner) int {
	if st.root == -1 {
		return 0
	}
	h := 0
	var rec func(v, d int)
	rec = func(v, d int) {
		if d > h {
			h = d
		}
		for _, c := range st.children[v] {
			rec(c, d+1)
		}
	}
	rec(st.root, 0)
	return h
}
