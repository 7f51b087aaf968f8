package spath

import (
	"fmt"
	"testing"

	"planarflow/internal/planar"
)

// TestGlobalMinCutMatchesStoerWagner holds the contracting min cut to plain
// Stoer–Wagner, the algorithm it runs on what the contraction leaves: on
// random multigraphs with self-loops, parallel edges, zero weights and
// disconnected parts, and on the duals of the cold_build catalogue (girth's
// input there), the value equals Stoer–Wagner's on the whole graph and the
// side is a proper, non-empty vertex set whose cut weighs exactly that.
func TestGlobalMinCutMatchesStoerWagner(t *testing.T) {
	type instance struct {
		name   string
		n      int
		us, vs []int
		ws     []int64
	}
	var ins []instance
	rng := planar.NewRand(26)
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.IntN(30)
		// parts > 1 keeps every edge inside one of that many vertex classes:
		// a disconnected graph, minimum cut 0.
		parts := 1
		if rng.IntN(8) == 0 {
			parts = 2 + rng.IntN(2)
		}
		maxW := []int64{1, 3, 10, 1000}[rng.IntN(4)]
		in := instance{name: fmt.Sprintf("random %d", trial), n: n}
		for i, m := 0, rng.IntN(4*n); i < m; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u%parts != v%parts {
				continue
			}
			w := rng.Int64N(maxW + 1)
			if rng.IntN(6) == 0 {
				w = 0
			}
			in.us, in.vs, in.ws = append(in.us, u), append(in.vs, v), append(in.ws, w)
			if rng.IntN(5) == 0 { // a parallel edge
				in.us, in.vs, in.ws = append(in.us, v), append(in.vs, u), append(in.ws, rng.Int64N(maxW+1))
			}
		}
		ins = append(ins, in)
	}
	// The cold_build catalogue, weights 1–9 as the benchmark draws them:
	// snake(12,12) and Triangulation(100), each dual edge once per primal
	// edge (parallel dual edges and a bridge's self-loop included).
	dual := func(name string, g *planar.Graph) instance {
		fd := g.Faces()
		in := instance{name: name, n: fd.NumFaces()}
		for e := 0; e < g.M(); e++ {
			in.us = append(in.us, fd.FaceOf(planar.ForwardDart(e)))
			in.vs = append(in.vs, fd.FaceOf(planar.BackwardDart(e)))
			in.ws = append(in.ws, g.Edge(e).Weight)
		}
		return in
	}
	for seed := int64(1); seed <= 20; seed++ {
		if seed <= 6 {
			g := planar.WithRandomWeights(planar.BoustrophedonGrid(12, 12), planar.NewRand(seed), 1, 9, 1, 10)
			ins = append(ins, dual(fmt.Sprintf("snake12x12 seed %d", seed), g))
		}
		g := planar.StackedTriangulation(100, planar.NewRand(seed))
		g = planar.WithRandomWeights(g, planar.NewRand(seed), 1, 9, 1, 10)
		ins = append(ins, dual(fmt.Sprintf("triangulation100 seed %d", seed), g))
	}

	for _, in := range ins {
		want, _ := stoerWagner(in.n, in.us, in.vs, in.ws)
		got, side := GlobalMinCut(in.n, in.us, in.vs, in.ws)
		if got != want {
			t.Fatalf("%s (n=%d, m=%d): min cut %d, Stoer–Wagner %d", in.name, in.n, len(in.us), got, want)
		}
		if w := CutWeightUndirected(in.us, in.vs, in.ws, side); w != got {
			t.Fatalf("%s: the side cuts weight %d, not the value %d", in.name, w, got)
		}
		members := 0
		for _, s := range side {
			if s {
				members++
			}
		}
		if members == 0 || members == in.n {
			t.Fatalf("%s: side holds %d of %d vertices", in.name, members, in.n)
		}
	}
}
