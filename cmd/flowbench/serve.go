package main

// SERVE experiment: amortized serving over the prepared-graph artifact
// layer. Each workload fires K queries per instance twice — cold (one-shot
// path: every query rebuilds its own BDD/labelings) and prepared (one
// PreparedGraph shared by all K queries) — and records total simulated
// rounds and the amortized speedup (cold rounds / prepared rounds).
// Results of the two paths are checked for equality per query; a mismatch
// flips the record's OK bit. Rounds only: how fast the prepared path
// answers on a clock is bench/'s decode.* rows, and that the decode
// engine agrees with the simulated route is TestFastPathEquivalence.

import (
	"fmt"

	"planarflow"
	"planarflow/internal/planar"
)

const serveQueries = 16 // K: queries per instance and path

// serveBench runs the serving workloads (sizes shown are -full; the default
// run shrinks them for smoke speed):
//
//   - dist on Grid(32,32): vertex-to-vertex distance queries. The whole
//     cost is label construction; prepared queries decode locally, so the
//     amortized speedup approaches K.
//   - dualsssp on Grid(16,16): dual SSSP from K source faces. Build
//     dominates but each query pays a label broadcast.
//   - maxflow on Grid(12,12): exact max st-flow for K (s,t) pairs. Only
//     the BDD is shared — the Miller–Naor search recomputes residual
//     labelings per λ — so the speedup is honest but modest.
//   - stflow on Grid(16,16): st-planar max flow (Thm 1.3) for K pairs on the
//     outer face. What is shared is the minor-aggregation simulator's price
//     card; its construction is a few dozen rounds against the thousands an
//     oracle call charges at those prices, so in rounds the speedup is ≈ 1 —
//     the row pins that the one-time charge is paid once, the clock-side
//     saving (the simulator itself) is bench/'s core.stflow_ms.
func serveBench(s *sink, c cfg) {
	for rep := 0; rep < c.repeats; rep++ {
		seed := c.seedFor(20, rep)
		header(rep, "SERVE", fmt.Sprintf("prepared-graph serving: K=%d queries, cold vs prepared", serveQueries),
			"workload", "path", "rounds", "build", "query", "speedup", "ok")
		serveDist(s, c, rep, seed)
		serveDualSSSP(s, c, rep, seed)
		serveMaxFlow(s, c, rep, seed)
		serveSTFlow(s, c, rep, seed)
	}
}

// serveRecord emits one Record of a serving run and prints its table row.
func serveRecord(s *sink, rep int, seed int64, instance, workload, path string,
	n, d int, rounds, measured, build, query int64, speedup float64, ok bool) {
	s.add(Record{
		Exp: "SERVE", Instance: instance, N: n, D: d,
		// Every phase of the label-backed workloads is pipelining-derived
		// (measured = 0); stflow's one measured phase is the BFS tree on Ĝ.
		Rounds: rounds, Measured: measured, Charged: rounds - measured,
		Repeat: rep, Seed: seed, OK: ok,
		Queries: serveQueries, Speedup: speedup,
	})
	row(rep, workload, path, rounds, build, query, speedup, ok)
}

// serveDist: K point-to-point distance queries; Grid(32,32) under -full
// (the headline amortization instance recorded in BENCH_serve.json), a small
// grid otherwise so smoke runs stay fast.
func serveDist(s *sink, c cfg, rep int, seed int64) {
	rows, cols := 12, 12
	if c.full {
		rows, cols = 32, 32
	}
	g := planarflow.GridGraph(rows, cols).WithRandomAttrs(seed, 1, 9, 1, 16)
	n, d := g.N(), rows+cols-2
	rng := planar.NewRand(seed)
	type pair struct{ u, v int }
	pairs := make([]pair, serveQueries)
	for i := range pairs {
		pairs[i] = pair{rng.IntN(n), rng.IntN(n)}
	}

	// Cold path: every query prepares its own artifact from scratch, so the
	// whole cold cost is build rounds (point queries decode for free).
	coldVals := make([]int64, serveQueries)
	var coldRounds int64
	for i, pr := range pairs {
		p, err := planarflow.Prepare(g)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		v, err := p.Dist(pr.u, pr.v)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		coldVals[i] = v
		coldRounds += p.BuildRounds().Total
	}

	// Prepared path: one artifact serves all K queries.
	p, err := planarflow.Prepare(g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ok := true
	for i, pr := range pairs {
		v, err := p.Dist(pr.u, pr.v)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		ok = ok && v == coldVals[i]
	}
	build := p.BuildRounds().Total
	prepRounds := build // point queries decode locally: zero per-query rounds
	speedup := float64(coldRounds) / float64(prepRounds)

	inst := fmt.Sprintf("dist-grid%dx%d", rows, cols)
	serveRecord(s, rep, seed, inst+":cold", "dist", "cold", n, d, coldRounds, 0, coldRounds, 0, 1, ok)
	serveRecord(s, rep, seed, inst+":prepared", "dist", "prepared", n, d, prepRounds, 0, build, prepRounds-build, speedup, ok)
}

// serveDualSSSP: K dual SSSP queries from distinct source faces.
func serveDualSSSP(s *sink, c cfg, rep int, seed int64) {
	rows, cols := 8, 8
	if c.full {
		rows, cols = 16, 16
	}
	g := planarflow.GridGraph(rows, cols).WithRandomAttrs(seed+1, 1, 9, 1, 16)
	n, d := g.N(), rows+cols-2
	rng := planar.NewRand(seed + 1)
	faces := make([]int, serveQueries)
	for i := range faces {
		faces[i] = rng.IntN(g.NumFaces())
	}

	coldDist := make([][]int64, serveQueries)
	var coldRounds, coldBuild int64
	for i, f := range faces {
		res, err := planarflow.DualSSSP(g, f)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		coldDist[i] = res.Dist
		coldRounds += res.Rounds.Total
		coldBuild += res.Rounds.Build
	}

	p, err := planarflow.Prepare(g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ok := true
	var prepRounds, build int64
	for i, f := range faces {
		res, err := p.DualSSSP(f)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		prepRounds += res.Rounds.Total
		build += res.Rounds.Build
		ok = ok && equalInt64s(res.Dist, coldDist[i])
	}
	speedup := float64(coldRounds) / float64(prepRounds)

	inst := fmt.Sprintf("dualsssp-grid%dx%d", rows, cols)
	serveRecord(s, rep, seed, inst+":cold", "dualsssp", "cold", n, d, coldRounds, 0, coldBuild, coldRounds-coldBuild, 1, ok)
	serveRecord(s, rep, seed, inst+":prepared", "dualsssp", "prepared", n, d, prepRounds, 0, build, prepRounds-build, speedup, ok)
}

// serveMaxFlow: K exact max-flow queries for distinct (s,t) pairs.
func serveMaxFlow(s *sink, c cfg, rep int, seed int64) {
	rows, cols := 6, 6
	if c.full {
		rows, cols = 12, 12
	}
	g := planarflow.GridGraph(rows, cols).WithRandomAttrs(seed+2, 1, 1, 1, 16)
	n, d := g.N(), rows+cols-2
	rng := planar.NewRand(seed + 2)
	type pair struct{ s, t int }
	pairs := make([]pair, serveQueries)
	for i := range pairs {
		st := rng.IntN(n / 2)
		tt := n/2 + rng.IntN(n/2)
		pairs[i] = pair{st, tt}
	}

	coldVals := make([]int64, serveQueries)
	var coldRounds, coldBuild int64
	for i, pr := range pairs {
		res, err := planarflow.MaxFlow(g, pr.s, pr.t)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		coldVals[i] = res.Value
		coldRounds += res.Rounds.Total
		coldBuild += res.Rounds.Build
	}

	p, err := planarflow.Prepare(g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ok := true
	var prepRounds, build int64
	for i, pr := range pairs {
		res, err := p.MaxFlow(pr.s, pr.t)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		prepRounds += res.Rounds.Total
		build += res.Rounds.Build
		ok = ok && res.Value == coldVals[i]
	}
	speedup := float64(coldRounds) / float64(prepRounds)

	inst := fmt.Sprintf("maxflow-grid%dx%d", rows, cols)
	serveRecord(s, rep, seed, inst+":cold", "maxflow", "cold", n, d, coldRounds, 0, coldBuild, coldRounds-coldBuild, 1, ok)
	serveRecord(s, rep, seed, inst+":prepared", "maxflow", "prepared", n, d, prepRounds, 0, build, prepRounds-build, speedup, ok)
}

// serveSTFlow: K exact st-planar max-flow queries between the top and the
// bottom row of a grid (both on the outer face).
func serveSTFlow(s *sink, c cfg, rep int, seed int64) {
	rows, cols := 8, 8
	if c.full {
		rows, cols = 16, 16
	}
	g := planarflow.GridGraph(rows, cols).WithRandomAttrs(seed+3, 1, 1, 1, 16)
	n, d := g.N(), rows+cols-2
	rng := planar.NewRand(seed + 3)
	type pair struct{ s, t int }
	pairs := make([]pair, serveQueries)
	for i := range pairs {
		pairs[i] = pair{rng.IntN(cols), (rows-1)*cols + rng.IntN(cols)}
	}

	coldFlows := make([][]int64, serveQueries)
	var coldRounds, coldMeasured, coldBuild int64
	for i, pr := range pairs {
		res, err := planarflow.ApproxMaxFlowSTPlanar(g, pr.s, pr.t, 0)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		coldFlows[i] = append(res.Flow, res.Value)
		coldRounds += res.Rounds.Total
		coldMeasured += res.Rounds.Measured
		coldBuild += res.Rounds.Build
	}

	p, err := planarflow.Prepare(g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ok := true
	var prepRounds, measured, build int64
	for i, pr := range pairs {
		res, err := p.ApproxMaxFlowSTPlanar(pr.s, pr.t, 0)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		prepRounds += res.Rounds.Total
		measured += res.Rounds.Measured
		build += res.Rounds.Build
		ok = ok && equalInt64s(append(res.Flow, res.Value), coldFlows[i])
	}
	speedup := float64(coldRounds) / float64(prepRounds)

	inst := fmt.Sprintf("stflow-grid%dx%d", rows, cols)
	serveRecord(s, rep, seed, inst+":cold", "stflow", "cold", n, d, coldRounds, coldMeasured, coldBuild, coldRounds-coldBuild, 1, ok)
	serveRecord(s, rep, seed, inst+":prepared", "stflow", "prepared", n, d, prepRounds, measured, build, prepRounds-build, speedup, ok)
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
