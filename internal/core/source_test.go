package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"planarflow/internal/artifact"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// lambdaSearch finds λ* from a feasibility oracle and counts the probes it
// ran: lambdaStar, or the full search it replaced (fullSearch).
type lambdaSearch func(g *planar.Graph, s, t int, feasible func(int64) (bool, error)) (int64, int, error)

// fullSearch is the search lambdaStar replaced, kept as its oracle: a probe
// at λ=0, then the bisection of [0, TotalCap+1) probing every mid. It counts
// the λ=0 probe too, as Iterations now counts every probe.
func fullSearch(g *planar.Graph, _, _ int, feasible func(int64) (bool, error)) (int64, int, error) {
	ok, err := feasible(0)
	if err == nil && !ok {
		err = errors.New("core: zero flow infeasible (negative capacity?)")
	}
	if err != nil {
		return 0, 1, err
	}
	lo, hi, probes := int64(0), g.TotalCap()+1, 1
	for lo+1 < hi {
		probes++
		mid := lo + (hi-lo)/2
		ok, err := feasible(mid)
		if err != nil {
			return 0, probes, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes, nil
}

// maxFlowFullLabeling is the reference MaxFlow is compared against: search's
// Miller–Naor search over full labelings, with the assignment decoded the way
// it was before label.SSSPFrom — a full labeling at λ*, then SSSP(0) over
// it. That labeling is charged to led unless a probe already labeled λ*.
// Every λ it labels also runs through a label.Search over the capacity
// lengths and the path, which must give the labeling's verdict and charge
// its entries, and at λ*, when a probe found it feasible, the search's SSSP
// must be the labeling's SSSP(0) — distances and entries, with no tree
// darts (it charges the marking but skips it); any
// difference is an error. A negative capacity starts no search.
func maxFlowFullLabeling(p *artifact.Prepared, s, t int, opt Options, led *ledger.Ledger, search lambdaSearch) (*FlowResult, error) {
	g := p.Graph()
	tree, err := p.Tree(opt.LeafLimit, led)
	if err != nil {
		return nil, err
	}
	path, err := dartPath(g, s, t)
	if err != nil {
		return nil, err
	}
	led.Charge("maxflow/find-path", int64(2*(tree.Root.TreeDepth+1)))
	onPath := make([]bool, g.NumDarts())
	for _, d := range path {
		onPath[d] = true
	}
	lengthsFor := func(lambda int64) []int64 {
		lens := make([]int64, g.NumDarts())
		for e := 0; e < g.M(); e++ {
			lens[planar.ForwardDart(e)] = g.Edge(e).Cap
		}
		for _, d := range path {
			lens[d] -= lambda
			lens[planar.Rev(d)] += lambda
		}
		return lens
	}
	var sv *label.Search
	base, err := label.Gather(label.Dual, tree, lengthsFor(0))
	if err == nil {
		sv, err = label.NewSearch(base, path)
	}
	if err == nil {
		defer sv.Close()
	}
	labeled := map[int64]bool{}
	lo, iters, err := search(g, s, t, func(lambda int64) (bool, error) {
		pled := ledger.New()
		ok := !label.Compute(label.Dual, tree, lengthsFor(lambda), pled).NegCycle
		led.Merge(pled)
		labeled[lambda] = ok
		if sv != nil {
			sled := ledger.New()
			got, err := sv.Feasible(context.Background(), lambda, sled)
			if err != nil || got != ok || !reflect.DeepEqual(sled.Entries(), pled.Entries()) {
				return false, fmt.Errorf("search at λ=%d: feasible=%v err=%v, charged %v; full labeling feasible=%v, charged %v",
					lambda, got, err, sled.Entries(), ok, pled.Entries())
			}
		}
		return ok, nil
	})
	if err != nil {
		return nil, err
	}
	passLed := led
	if labeled[lo] {
		passLed = ledger.New()
	}
	sled := ledger.New()
	sssp := label.Compute(label.Dual, tree, lengthsFor(lo), passLed).SSSP(0, sled)
	led.Merge(sled)
	if sv != nil && labeled[lo] {
		gotLed := ledger.New()
		got, err := sv.SSSP(context.Background(), lo, 0, gotLed)
		if err != nil || !reflect.DeepEqual(got.Dist, sssp.Dist) || got.TreeDart != nil ||
			!reflect.DeepEqual(gotLed.Entries(), sled.Entries()) {
			return nil, fmt.Errorf("search SSSP at λ*=%d (err %v) differs from the full labeling's", lo, err)
		}
	}
	res := &FlowResult{Value: lo, Flow: make([]int64, g.M()), Iterations: iters}
	fd := g.Faces()
	for e := range res.Flow {
		fw := planar.ForwardDart(e)
		res.Flow[e] = sssp.Dist[fd.FaceOf(planar.Rev(fw))] - sssp.Dist[fd.FaceOf(fw)]
		if onPath[fw] {
			res.Flow[e] += lo
		}
		if onPath[planar.Rev(fw)] {
			res.Flow[e] -= lo
		}
	}
	return res, nil
}

// TestSourceDirectedFlowMatchesFullLabeling: on random triangulations and
// snakes, at leaf limits small enough to give the source face a deep Child
// chain, MaxFlow returns the reference's result — value, iterations and the
// flow edge for edge — and charges the same ledger entry for entry. MinSTCut
// charges the reference flow's entries followed by a full primal labeling of
// the residual graph and SSSP(s) over it, and its side and cut edges are the
// reachability read off that labeling.
func TestSourceDirectedFlowMatchesFullLabeling(t *testing.T) {
	rng := planar.NewRand(47)
	weighted := func(g *planar.Graph) *planar.Graph {
		return planar.WithRandomDirections(planar.WithRandomWeights(g, rng, 1, 9, 1, 10), rng)
	}
	instances := []struct {
		name string
		g    *planar.Graph
	}{
		{"triangulation30", weighted(planar.StackedTriangulation(30, rng))},
		{"triangulation70", weighted(planar.StackedTriangulation(70, rng))},
		{"triangulation110", weighted(planar.StackedTriangulation(110, rng))},
		{"snake6x9", weighted(planar.BoustrophedonGrid(6, 9))},
		{"snake8x8", planar.WithRandomWeights(planar.BoustrophedonGrid(8, 8), rng, 1, 9, 1, 10)},
	}
	deepest := 0
	for _, in := range instances {
		for _, leafLimit := range []int{8, 0} {
			name := fmt.Sprintf("%s/leaf%d", in.name, leafLimit)
			opt := Options{LeafLimit: leafLimit}
			s := rng.IntN(in.g.N())
			tt := (s + 1 + rng.IntN(in.g.N()-1)) % in.g.N()

			wantLed, gotLed, cutLed := ledger.New(), ledger.New(), ledger.New()
			want, err := maxFlowFullLabeling(prep(in.g), s, tt, opt, wantLed, lambdaStar)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			p := prep(in.g)
			got, err := MaxFlow(p, s, tt, opt, gotLed)
			if err != nil {
				t.Fatalf("%s: maxflow: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: s=%d t=%d: MaxFlow\n %+v\nreference\n %+v", name, s, tt, got, want)
			}
			if !reflect.DeepEqual(gotLed.Entries(), wantLed.Entries()) {
				t.Fatalf("%s: ledgers differ:\nMaxFlow   %v\nreference %v", name, gotLed.Entries(), wantLed.Entries())
			}
			if err := CheckFlow(in.g, s, tt, got.Flow, got.Value); err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			cut, err := MinSTCut(prep(in.g), s, tt, opt, cutLed)
			if err != nil {
				t.Fatalf("%s: minstcut: %v", name, err)
			}
			if cut.Value != want.Value {
				t.Fatalf("%s: cut %d, reference flow %d", name, cut.Value, want.Value)
			}
			tree, err := p.Tree(leafLimit, ledger.New())
			if err != nil {
				t.Fatal(err)
			}
			refLed := ledger.New()
			refLed.Merge(wantLed)
			reach := label.Compute(label.Primal, tree, residualLengths(in.g, want.Flow), refLed).SSSP(s, refLed)
			if !reflect.DeepEqual(cutLed.Entries(), refLed.Entries()) {
				t.Fatalf("%s: ledgers differ:\nMinSTCut  %v\nreference %v", name, cutLed.Entries(), refLed.Entries())
			}
			side := make([]bool, in.g.N())
			var cutEdges []int
			for v, d := range reach.Dist {
				side[v] = d == 0
			}
			for e := range want.Flow {
				if ed := in.g.Edge(e); side[ed.U] && !side[ed.V] {
					cutEdges = append(cutEdges, e)
				}
			}
			if !reflect.DeepEqual(cut.Side, side) || !reflect.DeepEqual(cut.CutEdges, cutEdges) {
				t.Fatalf("%s: MinSTCut's side or cut edges differ from the full labeling's reachability", name)
			}
			if tree.Depth > deepest {
				deepest = tree.Depth
			}
		}
	}
	if deepest < 4 {
		t.Fatalf("deepest tree has %d levels: no deep Child chain exercised", deepest)
	}
}
