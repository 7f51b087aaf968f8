package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"planarflow"
	"planarflow/internal/planar"
	"planarflow/internal/store"
)

// opBuild is the cold_build operation: register a never-seen graph, then
// ask its first dist, dualdist, dualsssp, girth and globalmincut. It is
// not a library query kind, so it never reaches the program under test
// as a name.
const opBuild planarflow.QueryKind = "build"

// buildAnswers is how many first answers one opBuild collects.
const buildAnswers = 5

// op is one operation of a workload's request stream. U, V are vertices
// (dist and the flow/cut families), F1, F2 faces (dualdist; dualsssp
// sources from F1). opBuild uses all four.
type op struct {
	Graph int                  `json:"graph"` // index into plan.Specs
	Kind  planarflow.QueryKind `json:"kind"`
	U     int                  `json:"u"`
	V     int                  `json:"v"`
	F1    int                  `json:"f1"`
	F2    int                  `json:"f2"`
	Eps   float64              `json:"eps,omitempty"`
}

// query is the library form of a single-query op.
func (o *op) query() planarflow.Query {
	switch o.Kind {
	case planarflow.QDualDist:
		return planarflow.DualDistQuery(o.F1, o.F2)
	case planarflow.QDualSSSP:
		return planarflow.DualSSSPQuery(o.F1)
	case planarflow.QSTFlow:
		return planarflow.STFlowQuery(o.U, o.V, o.Eps)
	default:
		return planarflow.Query{Kind: o.Kind, U: o.U, V: o.V}
	}
}

// firstAnswers lists opBuild's queries in the order their values are
// checked.
func (o *op) firstAnswers() [buildAnswers]planarflow.Query {
	return [buildAnswers]planarflow.Query{
		planarflow.DistQuery(o.U, o.V),
		planarflow.DualDistQuery(o.F1, o.F2),
		planarflow.DualSSSPQuery(o.F1),
		planarflow.GirthQuery(),
		planarflow.GlobalMinCutQuery(),
	}
}

// share is one entry of an operation mix.
type share struct {
	kind planarflow.QueryKind
	pct  int
}

func mixShares(mix []share) []float64 {
	w := make([]float64, len(mix))
	for i, m := range mix {
		w[i] = float64(m.pct)
	}
	return w
}

// shape fixes everything about a workload's inputs except the seed: the
// two graph families and how many of each, the popularity skew over
// graphs, the operation mix and the stream length.
type shape struct {
	gridKind string // "grid", or "snake" where globalmincut must do real work
	grids    int
	gridSide int
	tris     int
	triN     int
	zipf     float64 // 0 = every graph equally popular
	mix      []share
	ops      int
	pass     int // operations in each single-caller pass of the traced run

	budget     int64 // store budget in bytes (0 = unlimited)
	background int   // cold_build: warmed graphs that pre-fill the budget
}

// plan is a workload's generated input: the graph specs and the request
// stream over them. The exported fields are the replayable stream; the
// rest is harness state derived from it.
type plan struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Specs      []store.GraphSpec `json:"specs"`
	Background []store.GraphSpec `json:"background,omitempty"`
	Ops        []op              `json:"ops"`

	sh     shape
	graphs []*planarflow.Graph // the harness's own copies, never handed to the program
	want   [][]int64           // expected values per op, filled by expect
}

func (p *plan) encode() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

// familySpecs interleaves the two families so that popularity rank (the
// spec index) alternates between them instead of favouring one.
//
// The graphs themselves come from a fixed catalogue — grid i and
// triangulation i of a size are the same graph in every run — and the
// seed only draws which catalogue entry takes which rank. Instances of
// one size differ in cost by up to a factor of two (a triangulation's
// BDD depends on its shape, a grid's label sizes on its weights); drawn
// afresh per seed, that difference alone exceeds every bound in
// BENCHMARK.json.
func familySpecs(rng *rand.Rand, sh shape, grids, tris int) []store.GraphSpec {
	total := grids + tris
	gridRank, triRank := rng.Perm(grids), rng.Perm(tris)
	specs := make([]store.GraphSpec, 0, total)
	for i := 0; i < total; i++ {
		// Capacities in [1,10] keep the total capacity of every size used
		// here well inside one power of two, so core.maxflow_iters is the
		// same for every graph of a size.
		sp := store.GraphSpec{WLo: 1, WHi: 9, CLo: 1, CHi: 10}
		if (i+1)*grids/total > i*grids/total {
			sp.Kind, sp.Rows, sp.Cols = sh.gridKind, sh.gridSide, sh.gridSide
			sp.Seed, gridRank = int64(1+gridRank[0]), gridRank[1:]
		} else {
			sp.Kind, sp.N = "triangulation", sh.triN
			sp.Seed, triRank = int64(1+triRank[0]), triRank[1:]
		}
		specs = append(specs, sp)
	}
	return specs
}

// zipfWeights returns the popularity of n ranks under exponent s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// stratified returns n draws over len(weights) classes in which every
// class has exactly its share (largest remainders take what rounding
// leaves), in seeded order. A run is then the mix it claims to be: drawn
// independently, a short stream's share of its slowest op kind moves by
// several percent from seed to seed, and so does every metric.
func stratified(rng *rand.Rand, n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	type rest struct {
		class int
		frac  float64
	}
	rests := make([]rest, len(weights))
	for c, w := range weights {
		exact := float64(n) * w / total
		whole := int(exact)
		for k := 0; k < whole; k++ {
			out = append(out, c)
		}
		rests[c] = rest{c, exact - float64(whole)}
	}
	sort.SliceStable(rests, func(i, j int) bool { return rests[i].frac > rests[j].frac })
	for k := 0; len(out) < n; k++ {
		out = append(out, rests[k].class)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// makePlan generates a workload's inputs from the seed alone.
func makePlan(name string, sh shape, seed int64) (*plan, error) {
	rng := planar.NewRand(seed)
	p := &plan{Workload: name, Seed: seed, sh: sh}
	p.Specs = familySpecs(rng, sh, sh.grids, sh.tris)
	p.Background = familySpecs(rng, sh, sh.background/2, sh.background-sh.background/2)
	for _, sp := range p.Specs {
		g, err := sp.Build()
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", name, err)
		}
		p.graphs = append(p.graphs, g)
	}
	kinds := stratified(rng, sh.ops, mixShares(sh.mix))
	ranks := stratified(rng, sh.ops, zipfWeights(len(p.Specs), sh.zipf))
	p.Ops = make([]op, sh.ops)
	for i := range p.Ops {
		o := &p.Ops[i]
		o.Kind, o.Graph = sh.mix[kinds[i]].kind, ranks[i]
		g := p.graphs[o.Graph]
		o.U, o.F1, o.F2 = rng.IntN(g.N()), rng.IntN(g.NumFaces()), rng.IntN(g.NumFaces())
		o.V = (o.U + 1 + rng.IntN(g.N()-1)) % g.N() // never U: the flow families need s != t
		if o.Kind == planarflow.QSTFlow {
			var onFace []int
			for v := 0; v < g.N(); v++ {
				if v != o.U && g.SharedFace(o.U, v) {
					onFace = append(onFace, v)
				}
			}
			o.V, o.Eps = onFace[rng.IntN(len(onFace))], 0.1
		}
	}
	return p, nil
}
