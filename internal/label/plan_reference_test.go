package label

import (
	"fmt"
	"slices"
	"sort"

	"planarflow/internal/bdd"
	"planarflow/internal/planar"
)

// The map-based plan derivation newPlan replaced, kept verbatim as the
// oracle of TestPlanMatchesMapReference: primal keys through a map per bag,
// DDG nodes found through a map[DDGNode]int, RepsOf a map by key, argsort by
// sort.Slice and every per-bag slice grown by append.

// refLayout is BagLayout with RepsOf keyed by separator key.
type refLayout struct {
	Keys     []int
	KeyOrder []int32
	Sep      []int
	SepOrder []int32
	SepPos   []int32
	ChildOf  []int8
	ChildPos []int32
	Nodes    []DDGNode
	RepsOf   map[int][]int
}

type refBagPlan struct {
	leaf      skeleton
	sepReps   [][]int
	childSep  [2][]sepEntry
	crossArcs []DDGArc
	zeroArcs  []DDGArc
}

type refPlan struct {
	t    *bdd.BDD
	v    *view
	lay  []refLayout
	bags []refBagPlan
}

func refKeys(g *planar.Graph, v *view, b *bdd.Bag) []int {
	if v.id == Dual {
		return b.Faces
	}
	seen := make(map[int]bool, len(b.Darts))
	var out []int
	for _, d := range b.Darts {
		for _, v := range [2]int{g.Tail(d), g.Head(d)} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

func refSep(v *view, b *bdd.Bag, shared []int) []int {
	if v.id == Dual {
		return b.FX
	}
	return shared
}

func refArgsort(keys []int) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	return order
}

func refNewPlan(t *bdd.BDD, v *view) (*refPlan, error) {
	pl := &refPlan{
		t:    t,
		v:    v,
		lay:  make([]refLayout, len(t.Bags)),
		bags: make([]refBagPlan, len(t.Bags)),
	}
	for _, b := range t.Bags {
		if b.Level < 0 || b.Level >= t.Depth {
			return nil, fmt.Errorf("label: bag %d at level %d of a %d-level tree", b.ID, b.Level, t.Depth)
		}
		lay := &pl.lay[b.ID]
		lay.Keys = refKeys(t.G, v, b)
		lay.KeyOrder = refArgsort(lay.Keys)
	}
	// key -> position in the current bag and in each of its children; -1
	// when absent.
	pos := absent(v.numKeys(t.G))
	cpos := [2][]int32{absent(len(pos)), absent(len(pos))}
	for _, b := range t.Bags {
		lay, bp := &pl.lay[b.ID], &pl.bags[b.ID]
		for i, k := range lay.Keys {
			pos[k] = int32(i)
		}
		var err error
		if b.IsLeaf() {
			bp.leaf = pl.skeletonOf(b, len(lay.Keys), pos)
		} else {
			for ci, c := range b.Children {
				for i, k := range pl.lay[c.ID].Keys {
					cpos[ci][k] = int32(i)
				}
			}
			err = pl.ddgSkeleton(b, lay, bp, pos, cpos)
			for ci, c := range b.Children {
				for _, k := range pl.lay[c.ID].Keys {
					cpos[ci][k] = -1
				}
			}
		}
		for _, k := range lay.Keys {
			pos[k] = -1
		}
		if err != nil {
			return nil, fmt.Errorf("label: bag %d: %w", b.ID, err)
		}
	}
	return pl, nil
}

func (pl *refPlan) skeletonOf(b *bdd.Bag, n int, node []int32) skeleton {
	g, v := pl.t.G, pl.v
	sk := skeleton{start: make([]int32, n+1)}
	m := 0
	v.bagDarts(g, b, func(d planar.Dart) {
		from, _ := v.ends(g, d)
		sk.start[node[from]+1]++
		m++
	})
	for u := 0; u < n; u++ {
		sk.start[u+1] += sk.start[u]
	}
	sk.to, sk.dart = make([]int32, m), make([]planar.Dart, m)
	next := append([]int32(nil), sk.start[:n]...)
	v.bagDarts(g, b, func(d planar.Dart) {
		from, to := v.ends(g, d)
		i := next[node[from]]
		next[node[from]]++
		sk.to[i], sk.dart[i] = node[to], d
	})
	return sk
}

func (pl *refPlan) ddgSkeleton(b *bdd.Bag, lay *refLayout, bp *refBagPlan, pos []int32, cpos [2][]int32) error {
	g, v := pl.t.G, pl.v
	for _, c := range b.Children {
		for _, k := range pl.lay[c.ID].Keys {
			if pos[k] < 0 {
				return fmt.Errorf("key %d of child bag %d is not in the bag", k, c.ID)
			}
		}
	}
	var shared []int
	for _, k := range lay.Keys {
		if cpos[0][k] >= 0 && cpos[1][k] >= 0 {
			shared = append(shared, k)
		}
	}
	lay.Sep = refSep(v, b, shared)
	lay.SepOrder = refArgsort(lay.Sep)
	lay.SepPos = absent(len(lay.Keys))
	index := make(map[DDGNode]int)
	lay.RepsOf = make(map[int][]int, len(lay.Sep))
	bp.sepReps = make([][]int, len(lay.Sep))
	for p, k := range lay.Sep {
		if pos[k] < 0 || lay.SepPos[pos[k]] >= 0 {
			return fmt.Errorf("separator key %d is not a key of the bag, once", k)
		}
		lay.SepPos[pos[k]] = int32(p)
		for ci := range b.Children {
			if cpos[ci][k] >= 0 {
				n := DDGNode{Child: ci, Key: k}
				index[n] = len(lay.Nodes)
				lay.RepsOf[k] = append(lay.RepsOf[k], len(lay.Nodes))
				lay.Nodes = append(lay.Nodes, n)
			}
		}
		bp.sepReps[p] = lay.RepsOf[k]
	}
	lay.ChildOf = make([]int8, len(lay.Keys))
	lay.ChildPos = absent(len(lay.Keys))
	for i, k := range lay.Keys {
		if lay.SepPos[i] >= 0 {
			continue
		}
		ci := 0
		if cpos[1][k] >= 0 {
			ci = 1
		}
		if cpos[ci][k] < 0 {
			return fmt.Errorf("key %d is in neither child nor the separator", k)
		}
		lay.ChildOf[i], lay.ChildPos[i] = int8(ci), cpos[ci][k]
	}
	for ci := range b.Children {
		for _, k := range lay.Sep {
			if cpos[ci][k] >= 0 {
				bp.childSep[ci] = append(bp.childSep[ci], sepEntry{key: k, cpos: cpos[ci][k], rep: index[DDGNode{ci, k}]})
			}
		}
	}
	for _, e := range v.crossEdges(b) {
		for _, d := range [2]planar.Dart{planar.ForwardDart(e), planar.BackwardDart(e)} {
			from, to := v.ends(g, d)
			tail, ok1 := index[DDGNode{b.SideOf(d), from}]
			head, ok2 := index[DDGNode{b.SideOf(planar.Rev(d)), to}]
			if !ok1 || !ok2 {
				return fmt.Errorf("cross edge %d does not join separator keys of the two children", e)
			}
			bp.crossArcs = append(bp.crossArcs, DDGArc{From: int32(tail), To: int32(head), Dart: int32(d)})
		}
	}
	for _, reps := range bp.sepReps {
		for _, i := range reps {
			for _, j := range reps {
				if i != j {
					bp.zeroArcs = append(bp.zeroArcs, DDGArc{From: int32(i), To: int32(j), Dart: int32(planar.NoDart)})
				}
			}
		}
	}
	return nil
}

// MatchesMapReference derives a fresh plan of view v over t and the map
// reference's, and reports the first field of a bag where they differ:
// every BagLayout field, RepsOf by separator position (the reference's by
// key), and every bagPlan field, the reference's sepReps against RepsOf.
// Errors must agree too, word for word.
func MatchesMapReference(v View, t *bdd.BDD) error {
	got, gotErr := newPlan(t, views[v])
	want, wantErr := refNewPlan(t, views[v])
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("error %v, the reference's %v", gotErr, wantErr)
		}
		return nil
	}
	for i := range t.Bags {
		g, w := &got.lay[i], &want.lay[i]
		gb, wb := &got.bags[i], &want.bags[i]
		diff := func(field string) error { return fmt.Errorf("bag %d: %s differs from the reference's", i, field) }
		switch {
		case !slices.Equal(g.Keys, w.Keys):
			return diff("Keys")
		case !slices.Equal(g.KeyOrder, w.KeyOrder):
			return diff("KeyOrder")
		case !slices.Equal(g.Sep, w.Sep):
			return diff("Sep")
		case !slices.Equal(g.SepOrder, w.SepOrder):
			return diff("SepOrder")
		case !slices.Equal(g.SepPos, w.SepPos):
			return diff("SepPos")
		case !slices.Equal(g.ChildOf, w.ChildOf):
			return diff("ChildOf")
		case !slices.Equal(g.ChildPos, w.ChildPos):
			return diff("ChildPos")
		case !slices.Equal(g.Nodes, w.Nodes):
			return diff("Nodes")
		case len(g.RepsOf) != len(w.Sep) || len(w.RepsOf) != len(w.Sep):
			return diff("RepsOf's length")
		case len(wb.sepReps) != len(g.RepsOf):
			return diff("sepReps' length")
		case !slices.Equal(gb.leaf.start, wb.leaf.start):
			return diff("leaf.start")
		case !slices.Equal(gb.leaf.to, wb.leaf.to):
			return diff("leaf.to")
		case !slices.Equal(gb.leaf.dart, wb.leaf.dart):
			return diff("leaf.dart")
		case !slices.Equal(gb.childSep[0], wb.childSep[0]) || !slices.Equal(gb.childSep[1], wb.childSep[1]):
			return diff("childSep")
		case !slices.Equal(gb.crossArcs, wb.crossArcs):
			return diff("crossArcs")
		case !slices.Equal(gb.zeroArcs, wb.zeroArcs):
			return diff("zeroArcs")
		}
		for p, k := range w.Sep {
			if !slices.Equal(g.RepsOf[p], w.RepsOf[k]) {
				return diff(fmt.Sprintf("RepsOf at separator position %d", p))
			}
			if !slices.Equal(g.RepsOf[p], wb.sepReps[p]) {
				return diff(fmt.Sprintf("sepReps at separator position %d", p))
			}
		}
		// Every slice the plan allocates is sized exactly; the dual view's
		// Keys and Sep are the tree's own.
		exact := []int{cap(g.KeyOrder) - len(g.KeyOrder), cap(g.SepOrder) - len(g.SepOrder),
			cap(g.SepPos) - len(g.SepPos), cap(g.ChildOf) - len(g.ChildOf), cap(g.ChildPos) - len(g.ChildPos),
			cap(g.Nodes) - len(g.Nodes), cap(g.RepsOf) - len(g.RepsOf),
			cap(gb.leaf.start) - len(gb.leaf.start), cap(gb.leaf.to) - len(gb.leaf.to), cap(gb.leaf.dart) - len(gb.leaf.dart),
			cap(gb.childSep[0]) - len(gb.childSep[0]), cap(gb.childSep[1]) - len(gb.childSep[1]),
			cap(gb.crossArcs) - len(gb.crossArcs), cap(gb.zeroArcs) - len(gb.zeroArcs)}
		if v == Primal {
			exact = append(exact, cap(g.Keys)-len(g.Keys), cap(g.Sep)-len(g.Sep))
		}
		for _, reps := range g.RepsOf {
			exact = append(exact, cap(reps)-len(reps))
		}
		for f, spare := range exact {
			if spare != 0 {
				return fmt.Errorf("bag %d: slice %d of the plan has %d slots over its length", i, f, spare)
			}
		}
	}
	return nil
}
