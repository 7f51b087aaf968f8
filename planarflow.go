// Package planarflow is a Go implementation of the distributed planar
// maximum-flow toolkit of Abd-Elhaleem, Dory, Parter and Weimann,
// "Distributed Maximum Flow in Planar Graphs" (PODC 2025).
//
// The library runs the paper's CONGEST-model algorithms on a simulated
// synchronous network and reports both their results and their round
// complexity:
//
//   - exact maximum st-flow and minimum st-cut in directed planar graphs in
//     Õ(D²) rounds (Theorems 1.2 and 6.1), via single-source shortest paths
//     on the dual graph computed through distance labels over a Bounded
//     Diameter Decomposition;
//   - (1-ε)-approximate maximum st-flow and minimum st-cut when s and t
//     share a face (Theorems 1.3 and 6.2), via Hassin's reduction simulated
//     in the minor-aggregation model on the dual;
//   - weighted girth in Õ(D) rounds (Theorem 1.7), via a dual minimum cut;
//   - directed global minimum cut in Õ(D²) rounds (Theorem 1.5), via
//     minimum directed cycles in the dual.
//
// Graphs are built with the Builder (or the generators in GridGraph etc.).
// Prepare wraps a graph in a PreparedGraph that builds the expensive
// substrates (BDD + distance labelings, the paper's §5 artifact) once, on
// first use, and answers queries concurrently. Every query family is a
// first-class Query value (MaxFlowQuery, GirthQuery, ...) executed through
// one entry point — Do for one query, DoBatch for many (bounded worker
// pool, single-pass substrate warmup, per-query error isolation), Warm for
// eager substrate prefetch — and every Answer carries a Rounds report
// derived from the simulation's measured message schedules. The
// DistanceOracle view adds directed dual distances and label sizes.
// See DESIGN.md for the correspondence between packages and the paper's
// sections, and EXPERIMENTS.md for the reproduced complexity measurements.
package planarflow

import (
	"fmt"

	"planarflow/internal/core"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// Inf is the "unreachable / acyclic" sentinel used by distance- and
// girth-valued results.
const Inf = spath.Inf

// Graph is an embedded planar network. Edge directions carry flow/weight
// semantics; the embedding (rotation system) is fixed at construction.
type Graph struct {
	g *planar.Graph
}

// Edge describes one directed, weighted, capacitated edge.
type Edge struct {
	U, V   int
	Weight int64
	Cap    int64
}

// Builder assembles a planar graph from edges plus an explicit combinatorial
// embedding: for every vertex, the cyclic order of its incident edge-ends.
type Builder struct {
	n     int
	edges []planar.Edge
	rot   [][]planar.Dart
}

// NewBuilder starts a builder for n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, rot: make([][]planar.Dart, n)}
}

// AddEdge appends a directed edge u -> v and returns its id. The edge is not
// embedded until it appears in both endpoints' rotations.
func (b *Builder) AddEdge(u, v int, weight, capacity int64) int {
	b.edges = append(b.edges, planar.Edge{U: u, V: v, Weight: weight, Cap: capacity})
	return len(b.edges) - 1
}

// SetRotation fixes the clockwise cyclic order of edge-ends at vertex v.
// Each element is an edge id previously returned by AddEdge; an edge
// incident to v twice (self-loops are not supported) cannot occur in simple
// graphs.
func (b *Builder) SetRotation(v int, edgeOrder []int) error {
	darts := make([]planar.Dart, len(edgeOrder))
	for i, e := range edgeOrder {
		if e < 0 || e >= len(b.edges) {
			return fmt.Errorf("planarflow: rotation of %d references unknown edge %d", v, e)
		}
		switch {
		case b.edges[e].U == v:
			darts[i] = planar.ForwardDart(e)
		case b.edges[e].V == v:
			darts[i] = planar.BackwardDart(e)
		default:
			return fmt.Errorf("planarflow: edge %d not incident to vertex %d", e, v)
		}
	}
	b.rot[v] = darts
	return nil
}

// Build validates the embedding (connectivity + Euler's formula) and returns
// the graph.
func (b *Builder) Build() (*Graph, error) {
	g, err := planar.NewGraph(b.n, b.edges, b.rot)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// GridGraph returns a rows x cols grid with unit weights and capacities
// (hop diameter rows+cols-2).
func GridGraph(rows, cols int) *Graph { return &Graph{g: planar.Grid(rows, cols)} }

// CylinderGraph returns a rows x cols cylindrical grid (cols >= 3).
func CylinderGraph(rows, cols int) *Graph { return &Graph{g: planar.Cylinder(rows, cols)} }

// BoustrophedonGridGraph returns a strongly connected one-way grid (rows
// alternate direction, snake-style) — the canonical non-trivial input for
// directed global minimum cut and directed girth.
func BoustrophedonGridGraph(rows, cols int) *Graph {
	return &Graph{g: planar.BoustrophedonGrid(rows, cols)}
}

// TriangulationGraph returns a random maximal planar graph on n >= 3
// vertices (seeded).
func TriangulationGraph(n int, seed int64) *Graph {
	return &Graph{g: planar.StackedTriangulation(n, planar.NewRand(seed))}
}

// CheckWeightRange reports ErrWeightRange unless the graph meets the weight
// contract of DESIGN §3: (N+1)·S ≤ 2^53, with S the sum of |weight| and
// |capacity| over all edges. Inside it every path sum, λ-shifted residual
// length, two-label decode and kernel potential stays far below Inf, and
// every capacity is exact as a float64.
func (gr *Graph) CheckWeightRange() error {
	limit := int64(1<<53) / int64(gr.g.N()+1)
	var sum int64
	for e := 0; e < gr.g.M(); e++ {
		ed := gr.g.Edge(e)
		for _, x := range [2]int64{ed.Weight, ed.Cap} {
			// |MinInt64| wraps negative, which fails the check too.
			if x = max(x, -x); x < 0 || x > limit-sum {
				return fmt.Errorf("planarflow: edge %d: (n+1)·(Σ|w|+Σ|cap|) exceeds 2^53: %w", e, ErrWeightRange)
			}
			sum += x
		}
	}
	return nil
}

// WithAttrs returns a copy with edge weights/capacities rewritten by fn.
func (gr *Graph) WithAttrs(fn func(e int, old Edge) Edge) *Graph {
	return &Graph{g: gr.g.WithEdgeAttrs(func(e int, old planar.Edge) planar.Edge {
		ne := fn(e, Edge{U: old.U, V: old.V, Weight: old.Weight, Cap: old.Cap})
		return planar.Edge{U: old.U, V: old.V, Weight: ne.Weight, Cap: ne.Cap}
	})}
}

// WithRandomAttrs returns a copy with weights in [wLo, wHi] and capacities
// in [cLo, cHi] drawn from the seeded generator.
func (gr *Graph) WithRandomAttrs(seed, wLo, wHi, cLo, cHi int64) *Graph {
	rng := planar.NewRand(seed)
	return &Graph{g: planar.WithRandomWeights(gr.g, rng, wLo, wHi, cLo, cHi)}
}

// WithRandomDirections flips each edge's direction with probability 1/2.
func (gr *Graph) WithRandomDirections(seed int64) *Graph {
	return &Graph{g: planar.WithRandomDirections(gr.g, planar.NewRand(seed))}
}

// N returns the number of vertices.
func (gr *Graph) N() int { return gr.g.N() }

// M returns the number of edges.
func (gr *Graph) M() int { return gr.g.M() }

// EdgeAt returns edge e.
func (gr *Graph) EdgeAt(e int) Edge {
	ed := gr.g.Edge(e)
	return Edge{U: ed.U, V: ed.V, Weight: ed.Weight, Cap: ed.Cap}
}

// Diameter returns the exact unweighted hop diameter (O(n·m); for large
// graphs use DiameterEstimate).
func (gr *Graph) Diameter() int { return gr.g.Diameter() }

// DiameterEstimate returns a 2-sweep BFS lower bound on the diameter.
func (gr *Graph) DiameterEstimate() int { return gr.g.DiameterLowerBound() }

// NumFaces returns the number of faces of the embedding.
func (gr *Graph) NumFaces() int { return gr.g.Faces().NumFaces() }

// SharedFace reports whether u and v lie on a common face (the st-planarity
// precondition of the approximate flow algorithms).
func (gr *Graph) SharedFace(u, v int) bool { return gr.g.FirstCommonFace(u, v) >= 0 }

// Rounds reports the CONGEST cost of one algorithm run, split two ways:
// Measured vs Charged (how the rounds were accounted) and Build vs Query
// (whether they construct the reusable BDD/labeling artifact or are paid per
// query). Only the query that triggers a construction carries Build
// rounds, so second-and-later queries on a PreparedGraph report Build == 0
// — the amortization the paper's §5 labels enable; a fresh Prepare per
// query pays Build + Query every time.
type Rounds struct {
	Total    int64
	Measured int64            // rounds counted by executing message schedules
	Charged  int64            // rounds derived from measured quantities
	Build    int64            // one-time artifact construction (BDD, labelings, minor-aggregation prices)
	Query    int64            // per-query work
	ByPhase  map[string]int64 // per-phase totals
}

func roundsOf(l *ledger.Ledger) Rounds {
	r := roundsTotalsOf(l)
	r.ByPhase = l.ByPhase()
	return r
}

// roundsTotalsOf is roundsOf without the per-phase map — the shape
// NoPhases queries ask for, skipping the map allocation entirely.
func roundsTotalsOf(l *ledger.Ledger) Rounds {
	m, c := l.Split()
	b, q := l.BuildSplit()
	return Rounds{Total: m + c, Measured: m, Charged: c, Build: b, Query: q}
}

// CheckFlow verifies a directed flow assignment (capacities + conservation).
func CheckFlow(gr *Graph, s, t int, flow []int64, value int64) error {
	return core.CheckFlow(gr.g, s, t, flow, value)
}

// CheckUndirectedFlow verifies a signed undirected flow assignment.
func CheckUndirectedFlow(gr *Graph, s, t int, flow []int64, value int64) error {
	return core.CheckUndirectedFlow(gr.g, s, t, flow, value)
}
